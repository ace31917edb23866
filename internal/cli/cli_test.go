package cli

import (
	"strings"
	"testing"
)

func TestStackEnv(t *testing.T) {
	for _, name := range []string{"nova", "nvstream"} {
		env, err := StackEnv(name)
		if err != nil || env.NewStack == nil {
			t.Errorf("StackEnv(%s): %v", name, err)
		}
	}
	if _, err := StackEnv("ext4"); err == nil || !strings.Contains(err.Error(), "unknown stack") {
		t.Errorf("StackEnv(ext4) error %v", err)
	}
}

func TestStamp(t *testing.T) {
	s := Stamp()
	if s.GoVersion == "" || s.GOOS == "" || s.GOARCH == "" || s.GOMAXPROCS < 1 || s.CPUModel == "" || s.Commit == "" {
		t.Errorf("incomplete stamp %+v", s)
	}
}
