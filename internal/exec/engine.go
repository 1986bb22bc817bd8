package exec

import (
	"fmt"
	"os"
)

// Engine names selectable per Request (see Request.Engine). Both engines
// produce bit-for-bit identical results for identical requests; the golden
// determinism and cross-engine differential tests enforce this.
const (
	// EngineGoroutine is the reference engine: one goroutine per simulated
	// process with direct channel handoff between them. It stays as the
	// differential reference and an explicit opt-in.
	EngineGoroutine = "goroutine"
	// EngineSequential is the goroutine-free engine and the default:
	// process bodies run as continuation machines dispatched by one
	// scheduler loop, eliminating the per-event handoff.
	EngineSequential = "sequential"
)

// EngineEnv is the environment variable consulted when Request.Engine is
// empty: set HYBRIDPERF_ENGINE=goroutine to flip the process-wide default
// to the reference engine (CI uses this to run the full test suite on
// each engine).
const EngineEnv = "HYBRIDPERF_ENGINE"

// Engines lists the selectable engine names.
func Engines() []string { return []string{EngineGoroutine, EngineSequential} }

// ValidateEngine checks an engine name; empty is valid and selects the
// default (see DefaultEngine).
func ValidateEngine(name string) error {
	switch name {
	case "", EngineGoroutine, EngineSequential:
		return nil
	}
	return fmt.Errorf("exec: unknown engine %q (want %q or %q)", name, EngineGoroutine, EngineSequential)
}

// resolveEngine maps a Request.Engine value to a concrete engine name:
// explicit names are validated, empty falls back to $HYBRIDPERF_ENGINE and
// then to the sequential engine. A malformed environment value is an error
// rather than a silent fallback.
func resolveEngine(name string) (string, error) {
	if name != "" {
		if err := ValidateEngine(name); err != nil {
			return "", err
		}
		return name, nil
	}
	env := os.Getenv(EngineEnv)
	switch env {
	case "":
		return EngineSequential, nil
	case EngineGoroutine, EngineSequential:
		return env, nil
	}
	return "", fmt.Errorf("exec: invalid $%s=%q (want %q or %q)", EngineEnv, env, EngineGoroutine, EngineSequential)
}

// DefaultEngine reports the engine an empty Request.Engine resolves to.
// A malformed $HYBRIDPERF_ENGINE reports the sequential engine here; Run
// itself surfaces the error.
func DefaultEngine() string {
	e, err := resolveEngine("")
	if err != nil {
		return EngineSequential
	}
	return e
}
