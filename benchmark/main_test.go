package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// blockedWorkload stands in for a run that never ends, like the statement
// generator that spun at the parent commit: no context reaches it.
func blockedWorkload(release <-chan struct{}) { <-release }

func TestWatchdogEndsABlockedRunWithStacks(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	go blockedWorkload(release)

	var stderr bytes.Buffer
	exited := make(chan int, 1)
	watchdog(20*time.Millisecond, "fake", &stderr, func(code int) { exited <- code })
	select {
	case code := <-exited:
		if code != 2 {
			t.Errorf("exit code %d, want 2", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the watchdog did not fire")
	}
	for _, want := range []string{"benchmark: fake: still running after 20ms", "goroutine ", "blockedWorkload"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}

	// A run that ends in time calls it off.
	stop := watchdog(time.Hour, "fake", &stderr, func(int) { t.Error("a stopped watchdog fired") })
	if !stop() {
		t.Error("stop reports the watchdog had already fired")
	}
}
