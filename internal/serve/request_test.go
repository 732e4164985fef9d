package serve

import "testing"

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
