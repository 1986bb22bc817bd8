package api

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzAppendBatchResult holds the batch result renderer to json.Marshal
// for arbitrary finite floats and ints. The seed corpus (the 'f'/'e'
// switch at 1e-6 and 1e21, the e-07 trim, subnormals, -0, extremes) is
// in testdata/fuzz/FuzzAppendBatchResult.
func FuzzAppendBatchResult(f *testing.F) {
	f.Add(4, 8, 1.8, 12.5, 3000.25, 240.02, 0.75, uint8(0))
	f.Fuzz(func(t *testing.T, nodes, cores int, freq, timeS, energyJ, powerW, ucr float64, names uint8) {
		p := Prediction{
			Config:  Config{Nodes: nodes, Cores: cores, FreqGHz: freq},
			TimeS:   timeS,
			EnergyJ: energyJ,
			PowerW:  powerW,
			UCR:     ucr,
		}
		if !p.Finite() {
			t.Skip("json.Marshal rejects non-finite floats")
		}
		systems, programs := []string{"xeon", "arm"}, []string{"SP", "CP", "LB", "FT"}
		system, program := systems[int(names)%len(systems)], programs[int(names/2)%len(programs)]
		want := MustJSON(BatchResult{System: system, Program: program, Prediction: p})
		got := AppendBatchResult([]byte("prefix"), system, program, p)
		if string(got[len("prefix"):]) != string(want) {
			t.Fatalf("rendered\n%s\njson.Marshal\n%s", got[len("prefix"):], want)
		}
	})
}

// fillDistinct sets every field reachable from v to a value no other
// field gets, so a field decoded into the wrong place, or not at all,
// shows as a difference. Slices get two elements.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d", *next))
	case reflect.Int:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(*next%2 == 1)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for j := 0; j < s.Len(); j++ {
			fillDistinct(t, s.Index(j), next)
		}
		v.Set(s)
	default:
		t.Fatalf("fillDistinct: no value for %s", v.Type())
	}
}

// checkEveryField decodes the json.Marshal form of a request with every
// field set, and wants it back exactly.
func checkEveryField[T any](t *testing.T, decode func([]byte, *T) error) {
	t.Helper()
	var want, got T
	next := 0
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &next)
	body := MustJSON(want)
	if err := decode(body, &got); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %s to %+v", body, got)
	}
}

// TestDecodersCoverEveryField: the field names come from the json tags,
// and each decoder passes every field's address in declaration order. A
// field added to a request struct but not to its decoder fails here, not
// as a 400 in production; the fuzz seeds only name today's fields.
func TestDecodersCoverEveryField(t *testing.T) {
	checkEveryField(t, DecodeBatch)
	checkEveryField(t, DecodePredict)
	checkEveryField(t, DecodeSweep)
	checkEveryField(t, DecodeAdvise)
}

// TestAppendBatchResultCoversPredictionJSON: AppendBatchResult writes
// every field of Prediction, in json.Marshal's order, so a field added
// there cannot go missing from the batch answer.
func TestAppendBatchResultCoversPredictionJSON(t *testing.T) {
	var p Prediction
	next := 0
	fillDistinct(t, reflect.ValueOf(&p).Elem(), &next)
	want := MustJSON(BatchResult{System: "xeon", Program: "SP", Prediction: p})
	if got := AppendBatchResult(nil, "xeon", "SP", p); !bytes.Equal(got, want) {
		t.Errorf("rendered\n%s\njson.Marshal\n%s", got, want)
	}
}

// TestCatalogueNamesNeedNoEscaping pins what makes rendering names raw
// safe: json.Marshal writes every catalogue name (and so every name a
// validated request can carry) as the name itself, quoted.
func TestCatalogueNamesNeedNoEscaping(t *testing.T) {
	for name := range wireNames {
		if got, want := string(MustJSON(name)), `"`+name+`"`; got != want {
			t.Errorf("json.Marshal(%q) = %s, want %s", name, got, want)
		}
	}
}

// TestReadBodyMaxMatchesReadAll: ReadBody presizing from Content-Length changes
// no outcome. A body shorter or longer than declared, or of unknown
// length, reads exactly as io.ReadAll reads it, and over the limit is
// still 413.
func TestReadBodyMaxMatchesReadAll(t *testing.T) {
	const limit = 1000
	for _, tc := range []struct {
		name     string
		body     string
		declared int64
	}{
		{"exact", strings.Repeat("a", 700), 700},
		{"shorter than declared", strings.Repeat("b", 10), 600},
		{"longer than declared", strings.Repeat("c", 900), 3},
		{"chunked", strings.Repeat("d", 999), -1},
		{"empty", "", 0},
		{"at the limit", strings.Repeat("e", limit), limit},
		{"over the limit, declared", strings.Repeat("f", limit+1), limit + 1},
		{"over the limit, chunked", strings.Repeat("g", 3*limit), -1},
		{"over the limit, declared short", strings.Repeat("h", limit+5), 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newReq := func() *http.Request {
				r := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(tc.body))
				r.ContentLength = tc.declared
				return r
			}
			want, wantErr := io.ReadAll(http.MaxBytesReader(httptest.NewRecorder(), newReq().Body, limit))
			rec := httptest.NewRecorder()
			got, ok := ReadBody(rec, newReq(), limit)
			if ok != (wantErr == nil) {
				t.Fatalf("ok=%v, io.ReadAll err %v", ok, wantErr)
			}
			var tooBig *http.MaxBytesError
			if !ok {
				if errors.As(wantErr, &tooBig) && rec.Code != http.StatusRequestEntityTooLarge {
					t.Errorf("over the limit: status %d, want 413", rec.Code)
				}
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("read %d bytes, io.ReadAll %d", len(got), len(want))
			}
		})
	}
}

// stallReader is a body that has not sent a byte yet: it records the
// buffer offered to its first Read and ends the body there.
type stallReader struct{ offered int }

func (r *stallReader) Read(p []byte) (int, error) {
	if r.offered == 0 {
		r.offered = len(p)
	}
	return 0, io.EOF
}

// TestReadBodyMaxBoundsPresize: a declared Content-Length buys at most
// maxBodyPresize bytes of buffer before the body's bytes arrive, on the
// largest route's limit; a body past that still reads whole.
func TestReadBodyMaxBoundsPresize(t *testing.T) {
	body := &stallReader{}
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	r.Body = io.NopCloser(body)
	r.ContentLength = MaxBatchBodyBytes
	if got, ok := ReadBody(httptest.NewRecorder(), r, MaxBatchBodyBytes); !ok || len(got) != 0 {
		t.Fatalf("ok=%v, %d bytes", ok, len(got))
	}
	if body.offered > maxBodyPresize+1 {
		t.Errorf("declared %d bytes, got a %d-byte buffer before any arrived; bound %d",
			MaxBatchBodyBytes, body.offered, maxBodyPresize+1)
	}

	big := bytes.Repeat([]byte("x"), 3*maxBodyPresize+7)
	r = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(big))
	got, ok := ReadBody(httptest.NewRecorder(), r, MaxBatchBodyBytes)
	if !ok || !bytes.Equal(got, big) {
		t.Errorf("a %d-byte body past the presize: ok=%v, read %d bytes", len(big), ok, len(got))
	}
}
