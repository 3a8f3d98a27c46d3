package lib

import "testing"

func TestReferencesDoNotCount(t *testing.T) {
	if Dead(2) != 0 || Oracle() != 3 {
		t.Fatal("fixture")
	}
}
