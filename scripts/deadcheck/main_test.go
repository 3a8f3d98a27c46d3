package main

import (
	"reflect"
	"strings"
	"testing"
)

// The fixture module holds one exported name per rule: a planted dead
// function (also called from a test and by itself), a method live only
// through an interface, one live only through fmt.Stringer, one called only
// from the nested bench module, and an oracle only a test calls.
func TestFixture(t *testing.T) {
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  []string
	}{
		{"allow-listed oracle passes", map[string]string{"lib.Oracle": "reference oracle"}, []string{"lib.Dead"}},
		{"oracle without allow-list fails", nil, []string{"lib.Dead", "lib.Oracle"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dead, err := check("testdata/fixture", tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range dead {
				if !strings.HasPrefix(d, "testdata/fixture/internal/lib/lib.go:") {
					t.Errorf("finding outside the fixture's lib.go: %s", d)
				}
				got = append(got, d[strings.LastIndex(d, " ")+1:])
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("findings %q, want %q", dead, tc.want)
			}
		})
	}
}
