package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestCacheKeyStable pins ParseRequest keys to fixed values. A changed
// key silently orphans every record in an existing -store directory, so
// any change here must be deliberate. A "surrogate" field, from builds
// that still had the learned cost oracle, a "verify_delta" field, from
// builds that exposed the search cross-check on /solve, and a
// "warm_start" field, from builds that could seed a search from a stored
// solution, are ignored like any unknown field: they map to the plain
// request's key.
func TestCacheKeyStable(t *testing.T) {
	const inline = `{"graph":{"name":"keypin","layers":[` +
		`{"name":"in","op":"Input","shape":{"hi":8,"wi":8,"ci":3,"ho":8,"wo":8,"co":3}},` +
		`{"name":"c1","op":"Conv","inputs":["in"],"shape":{"hi":8,"wi":8,"ci":3,"ho":8,"wo":8,"co":16,"kh":3,"kw":3,"stride":1,"pad":1}}]}}`
	for _, tc := range []struct {
		body, key string
	}{
		{`{"model":"resnet50"}`, "5b061e5647a33c1733983ed58ca267014e592ba4127367c48274d4727b0cac70"},
		{inline, "786db12b77854dfab9f8b9d6df1b6ae10d1566ed1045243cf3e94203289c0aa5"},
		{`{"model":"resnet50","warm_start":true}`, "5b061e5647a33c1733983ed58ca267014e592ba4127367c48274d4727b0cac70"},
		{`{"model":"resnet50","surrogate":true}`, "5b061e5647a33c1733983ed58ca267014e592ba4127367c48274d4727b0cac70"},
		{`{"model":"resnet50","surrogate":false}`, "5b061e5647a33c1733983ed58ca267014e592ba4127367c48274d4727b0cac70"},
		{`{"model":"resnet50","verify_delta":true}`, "5b061e5647a33c1733983ed58ca267014e592ba4127367c48274d4727b0cac70"},
		// buffer_bytes sizes the engine, not only the simulated buffer as
		// it once did, so it hashes under a new token.
		{`{"model":"resnet50","hardware":{"buffer_bytes":65536}}`, "88d14026a55ed911e98394095cca24a3086be4119ff6be83ee85119cab6929b9"},
	} {
		r, err := ParseRequest([]byte(tc.body))
		if err != nil {
			t.Fatalf("%.40s: %v", tc.body, err)
		}
		if r.Key() != tc.key {
			t.Errorf("%.40s: key %s, want %s", tc.body, r.Key(), tc.key)
		}
	}
}

// TestKeyCoversEveryField makes DESIGN §7's rule, "anything that changes
// the result is in the key", a test. It enumerates every JSON field of
// Request and HardwareSpec and flips each from its default to a valid
// other value: the key must move, except for a field declared outside
// the key, whose flip must leave a tinyconv solve's response unchanged.
// A field added without a flip value here, that is without a key
// decision, fails it.
func TestKeyCoversEveryField(t *testing.T) {
	const base = `{"model":"tinyconv"}`
	flips := map[string]string{ // field -> a valid non-default value
		"model":         `"tinyresnet"`,
		"graph":         `{"name":"g","layers":[{"name":"in","op":"Input","shape":{"ho":8,"wo":8,"co":3}}]}`,
		"batch":         `2`,
		"seed":          `2`,
		"sa_iters":      `599`,
		"chains":        `2`,
		"max_tiles":     `1023`,
		"mode":          `"greedy"`,
		"trace":         `true`,
		"timeout_ms":    `60000`,
		"mesh_w":        `4`,
		"mesh_h":        `4`,
		"link_bytes":    `16`,
		"buffer_bytes":  `65536`,
		"dataflow":      `"yxp"`,
		"naive_mapping": `true`,
		"double_buffer": `false`,
	}
	// A deadline decides whether a solve finishes, not what it returns.
	outsideKey := map[string]bool{"timeout_ms": true}

	key := func(body string) string {
		t.Helper()
		r, err := ParseRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return r.Key()
	}
	baseKey := key(base)
	seen := map[string]bool{}
	var walk func(typ reflect.Type, body func(field, value string) string)
	walk = func(typ reflect.Type, body func(field, value string) string) {
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if !sf.IsExported() || name == "-" {
				continue
			}
			if sf.Type == reflect.TypeOf(&HardwareSpec{}) {
				walk(sf.Type.Elem(), func(field, value string) string {
					return `{"model":"tinyconv","` + name + `":{"` + field + `":` + value + `}}`
				})
				continue
			}
			seen[name] = true
			v, ok := flips[name]
			if !ok {
				t.Errorf("field %s has no key decision: give it a flip value here", name)
				continue
			}
			b := body(name, v)
			if got := key(b); (got == baseKey) != outsideKey[name] {
				t.Errorf("%s: key moved %t, want %t", b, got != baseKey, !outsideKey[name])
			}
			if outsideKey[name] {
				if a, b := solveBody(t, base), solveBody(t, b); a != b {
					t.Errorf("flipping %s, which the key leaves out, changed the response:\n%s\n%s", name, a, b)
				}
			}
		}
	}
	walk(reflect.TypeOf(Request{}), func(field, value string) string {
		if field == "model" || field == "graph" {
			return `{"` + field + `":` + value + `}`
		}
		return `{"model":"tinyconv","` + field + `":` + value + `}`
	})
	for name := range flips {
		if !seen[name] {
			t.Errorf("flip value for %s, which is no field of Request or HardwareSpec", name)
		}
	}
}

// solveBody solves body on a fresh server and returns its response with
// the wall-clock search time zeroed.
func solveBody(t *testing.T, body string) string {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postSolve(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d: %s", body, resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	sr.SearchMS = 0
	out, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
