package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hybridperf/internal/des"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

func TestValidateEngine(t *testing.T) {
	for _, ok := range []string{"", EngineGoroutine, EngineSequential} {
		if err := ValidateEngine(ok); err != nil {
			t.Errorf("ValidateEngine(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"parallel", "Goroutine", "sequential "} {
		if err := ValidateEngine(bad); err == nil {
			t.Errorf("ValidateEngine(%q) accepted an unknown engine", bad)
		}
	}
}

func TestDefaultEngineFromEnvironment(t *testing.T) {
	t.Setenv(EngineEnv, "")
	if got := DefaultEngine(); got != EngineSequential {
		t.Fatalf("DefaultEngine() = %q with no env, want %q", got, EngineSequential)
	}
	t.Setenv(EngineEnv, EngineGoroutine)
	if got := DefaultEngine(); got != EngineGoroutine {
		t.Fatalf("DefaultEngine() = %q, want %q", got, EngineGoroutine)
	}
	// DefaultEngine itself falls back on garbage; Run surfaces the error.
	t.Setenv(EngineEnv, "warp-drive")
	if got := DefaultEngine(); got != EngineSequential {
		t.Fatalf("DefaultEngine() = %q with malformed env, want fallback %q", got, EngineSequential)
	}
	req := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.8e9})
	if _, err := Run(req); err == nil || !strings.Contains(err.Error(), "HYBRIDPERF_ENGINE") {
		t.Fatalf("Run() = %v under malformed $%s, want a naming error", err, EngineEnv)
	}
}

func TestRunRejectsUnknownEngine(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.8e9})
	req.Engine = "warp-drive"
	if _, err := Run(req); err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("Run() = %v, want unknown-engine error", err)
	}
}

// TestResultReportsEngine: the engine that actually ran is stamped on the
// result — explicitly requested or resolved from the environment.
func TestResultReportsEngine(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	for _, engine := range Engines() {
		r := req
		r.Engine = engine
		res, err := Run(r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine.Engine != engine {
			t.Fatalf("Result.Engine.Engine = %q, want %q", res.Engine.Engine, engine)
		}
		if res.Engine.Events == 0 || res.Engine.Procs == 0 {
			t.Fatalf("%s engine reported empty stats: %+v", engine, res.Engine)
		}
	}
	t.Setenv(EngineEnv, EngineGoroutine)
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Engine != EngineGoroutine {
		t.Fatalf("env default not honoured: ran %q, want %q", res.Engine.Engine, EngineGoroutine)
	}
}

// TestSequentialRunPreCancelledContext: the upfront cancellation check
// holds on the sequential engine too.
func TestSequentialRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	req.Ctx = ctx
	req.Engine = EngineSequential
	if _, err := Run(req); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
}

// TestRunSpecSeamRequiresGoroutine: the runSpec test seam is a goroutine
// body, so explicitly pairing it with the sequential engine is an error
// (an empty Engine silently keeps the seam on the goroutine engine).
func TestRunSpecSeamRequiresGoroutine(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.8e9})
	req.runSpec = func(p *des.Proc, env *workload.Env) error {
		p.Advance(1e-6)
		return nil
	}
	req.Engine = EngineSequential
	if _, err := Run(req); err == nil || !strings.Contains(err.Error(), "goroutine engine") {
		t.Fatalf("Run() = %v, want runSpec/engine mismatch error", err)
	}
	t.Setenv(EngineEnv, EngineSequential) // env default must not break the seam
	req.Engine = ""
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Engine != EngineGoroutine {
		t.Fatalf("seam ran on %q, want forced %q", res.Engine.Engine, EngineGoroutine)
	}
}

// TestObserveLabelsNonDefaultEngine: span labels stay unannotated for runs
// on the resolved default engine and name any other engine explicitly —
// whichever engine $HYBRIDPERF_ENGINE makes the default.
func TestObserveLabelsNonDefaultEngine(t *testing.T) {
	for _, def := range Engines() {
		t.Setenv(EngineEnv, def)
		for _, engine := range append([]string{""}, Engines()...) {
			var label string
			req := xeonReq(machine.Config{Nodes: 1, Cores: 2, Freq: 1.8e9})
			req.Engine = engine
			req.Observe = func(l string, _, _ time.Time) { label = l }
			if _, err := Run(req); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("run %s %v", req.Spec.Name, req.Cfg)
			if engine != "" && engine != def {
				want += " engine=" + engine
			}
			if label != want {
				t.Errorf("default %s, engine %q: label %q, want %q", def, engine, label, want)
			}
		}
	}
}
