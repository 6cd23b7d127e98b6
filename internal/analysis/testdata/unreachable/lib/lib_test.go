package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 7 {
		t.Fatal("TestOnly")
	}
}
