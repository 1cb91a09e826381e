// Package clitest runs a command's main in a child copy of the command's
// test binary, so tests see exit codes, standard output and standard error
// as a shell does.
//
// A command's test file hands its main to Main from TestMain, then calls Run
// with the arguments to try.
package clitest

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const childEnv = "REPRO_CLITEST_MAIN"

// Main is a command test binary's TestMain body: in a child started by Run
// it calls main (which parses the child's arguments) and exits 0 if main
// returns; otherwise it runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run runs main with args in a child process and returns its exit code,
// standard output and standard error.
func Run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var ob, eb strings.Builder
	cmd.Stdout = &ob
	cmd.Stderr = &eb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, ob.String(), eb.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), ob.String(), eb.String()
	}
	t.Fatalf("running %q: %v", args, err)
	return 0, "", ""
}

// WantUsageError runs main with args and requires exit status 2 with
// standard error naming want.
func WantUsageError(t *testing.T, want string, args ...string) {
	t.Helper()
	code, _, stderr := Run(t, args...)
	if code != 2 || !strings.Contains(stderr, want) {
		t.Errorf("%q: exit %d, stderr %q; want exit 2 naming %q", args, code, stderr, want)
	}
}
