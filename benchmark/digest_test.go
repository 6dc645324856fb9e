package main

import "testing"

func mustDigest(t *testing.T, body string) digest {
	t.Helper()
	d, err := digestResponse([]byte(body))
	if err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	return d
}

func TestDigestIgnoresOrderAndEncoding(t *testing.T) {
	a := mustDigest(t, `{"head":{"vars":["x","n"]},"results":{"bindings":[
		{"x":{"type":"uri","value":"http://e/1"},"n":{"type":"literal","value":"a \"q\" é"}},
		{"x":{"type":"uri","value":"http://e/2"},"n":{"type":"literal","value":"b","xml:lang":"en"}}]}}`)
	// rows swapped, keys reordered, other escapes, no whitespace
	b := mustDigest(t, `{"results":{"bindings":[{"n":{"xml:lang":"en","value":"b","type":"literal"},"x":{"value":"http:\/\/e\/2","type":"uri"}},{"n":{"value":"a \"q\" \u00e9","type":"literal"},"x":{"type":"uri","value":"http://e/1"}}]},"head":{"vars":["n","x"]}}`)
	if a != b {
		t.Errorf("same bindings, different digests: %+v vs %+v", a, b)
	}
	if a.Rows != 2 || a.Boolean != -1 || a.Truncated {
		t.Errorf("unexpected digest %+v", a)
	}
}

func TestDigestSeesEveryDifference(t *testing.T) {
	base := mustDigest(t, `{"results":{"bindings":[{"x":{"type":"uri","value":"http://e/1"}},{"y":{"type":"uri","value":"http://e/2"}}]}}`)
	for name, body := range map[string]string{
		"value changed":           `{"results":{"bindings":[{"x":{"type":"uri","value":"http://e/3"}},{"y":{"type":"uri","value":"http://e/2"}}]}}`,
		"type changed":            `{"results":{"bindings":[{"x":{"type":"literal","value":"http://e/1"}},{"y":{"type":"uri","value":"http://e/2"}}]}}`,
		"datatype added":          `{"results":{"bindings":[{"x":{"type":"uri","value":"http://e/1","datatype":"d"}},{"y":{"type":"uri","value":"http://e/2"}}]}}`,
		"variable renamed":        `{"results":{"bindings":[{"z":{"type":"uri","value":"http://e/1"}},{"y":{"type":"uri","value":"http://e/2"}}]}}`,
		"terms moved across rows": `{"results":{"bindings":[{"x":{"type":"uri","value":"http://e/1"},"y":{"type":"uri","value":"http://e/2"}},{}]}}`,
		"row duplicated":          `{"results":{"bindings":[{"x":{"type":"uri","value":"http://e/1"}},{"y":{"type":"uri","value":"http://e/2"}},{"y":{"type":"uri","value":"http://e/2"}}]}}`,
	} {
		if got := mustDigest(t, body); got == base {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

func TestDigestBooleanAndTruncated(t *testing.T) {
	if d := mustDigest(t, `{"head":{"vars":null},"boolean":true}`); d.Boolean != 1 {
		t.Errorf("ASK true: %+v", d)
	}
	if d := mustDigest(t, `{"head":{},"boolean":false}`); d.Boolean != 0 {
		t.Errorf("ASK false: %+v", d)
	}
	if d := mustDigest(t, `{"head":{"vars":[]},"results":{"bindings":[]},"truncated":true}`); !d.Truncated || d.Rows != 0 {
		t.Errorf("truncated: %+v", d)
	}
	for _, bad := range []string{``, `{"results":{"bindings":[{"x":{"type":"uri","value":"unterminated}}]}}`, `{"results":{"bindings":[}`, `[]`} {
		if _, err := digestResponse([]byte(bad)); err == nil {
			t.Errorf("malformed body accepted: %q", bad)
		}
	}
}
