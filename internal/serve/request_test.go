package serve

import "testing"

// TestCacheKeyStable pins ParseRequest keys to fixed values. A changed
// key silently orphans every record in an existing -store directory, so
// any change here must be deliberate.
func TestCacheKeyStable(t *testing.T) {
	const inline = `{"graph":{"name":"keypin","layers":[` +
		`{"name":"in","op":"Input","shape":{"hi":8,"wi":8,"ci":3,"ho":8,"wo":8,"co":3}},` +
		`{"name":"c1","op":"Conv","inputs":["in"],"shape":{"hi":8,"wi":8,"ci":3,"ho":8,"wo":8,"co":16,"kh":3,"kw":3,"stride":1,"pad":1}}]}}`
	for _, tc := range []struct {
		body, key string
	}{
		{`{"model":"resnet50"}`, "5b061e5647a33c1733983ed58ca267014e592ba4127367c48274d4727b0cac70"},
		{inline, "786db12b77854dfab9f8b9d6df1b6ae10d1566ed1045243cf3e94203289c0aa5"},
		{`{"model":"resnet50","warm_start":true}`, "78c68f7c151d5b46043b9707557df6a21363c1c84be1734ff4ccb465b9bb35d7"},
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
