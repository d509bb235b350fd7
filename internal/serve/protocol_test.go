package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes — a length prefix and a body, as a
// client's socket delivers them — to the frame decoder, as both frames a
// connection reads: the hello and a request. Every input either fails to
// decode or decodes to a value that survives WriteFrame→ReadFrame
// unchanged. The committed corpus holds a valid hello, a valid submit, a
// truncated prefix, an over-cap length and a body that is not JSON.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Hello
		if ReadFrame(bytes.NewReader(data), &h) == nil {
			var back Hello
			roundTrip(t, h, &back)
			if back != h {
				t.Fatalf("hello %+v came back as %+v", h, back)
			}
		}
		var req Request
		if ReadFrame(bytes.NewReader(data), &req) == nil {
			var back Request
			roundTrip(t, req, &back)
			if !reflect.DeepEqual(back, req) {
				t.Fatalf("request %+v (submit %+v) came back as %+v (submit %+v)", req, req.Submit, back, back.Submit)
			}
		}
	})
}

func roundTrip(t *testing.T, v, into any) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, v); err != nil {
		t.Fatalf("re-encode %+v: %v", v, err)
	}
	if err := ReadFrame(&buf, into); err != nil {
		t.Fatalf("decode re-encoded %+v: %v", v, err)
	}
}
