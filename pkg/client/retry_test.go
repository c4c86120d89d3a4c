package client

import (
	"net/http"
	"testing"
	"time"
)

func TestBackoffDelayBounds(t *testing.T) {
	j := newJitterSource()
	base, max := 50*time.Millisecond, 2*time.Second
	for attempt := 0; attempt < 10; attempt++ {
		full := base << attempt
		if full > max || full <= 0 {
			full = max
		}
		for i := 0; i < 50; i++ {
			d := backoffDelay(base, max, attempt, j)
			if d < full/2 || d > full {
				t.Fatalf("attempt %d delay %v outside [%v, %v]", attempt, d, full/2, full)
			}
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("empty = %v, want 0", d)
	}
	if d := parseRetryAfter("2"); d != 2*time.Second {
		t.Errorf("seconds = %v, want 2s", d)
	}
	if d := parseRetryAfter("-1"); d != 0 {
		t.Errorf("negative = %v, want 0", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("garbage = %v, want 0", d)
	}
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 80*time.Second || d > 90*time.Second {
		t.Errorf("http-date = %v, want ~90s", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Errorf("past http-date = %v, want 0", d)
	}
}
