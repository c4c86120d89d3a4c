package api

import (
	"errors"
	"testing"
)

func TestValidateBatchSize(t *testing.T) {
	if err := ValidateBatchSize(0); !errors.Is(err, ErrBatchEmpty) {
		t.Errorf("ValidateBatchSize(0) = %v, want ErrBatchEmpty", err)
	}
	if err := ValidateBatchSize(1); err != nil {
		t.Errorf("ValidateBatchSize(1) = %v, want nil", err)
	}
	if err := ValidateBatchSize(MaxBatchItems); err != nil {
		t.Errorf("ValidateBatchSize(max) = %v, want nil", err)
	}
	if err := ValidateBatchSize(MaxBatchItems + 1); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("ValidateBatchSize(max+1) = %v, want ErrBatchTooLarge", err)
	}
}

func TestValidateBatchIDs(t *testing.T) {
	items := func(ids ...string) []BatchItem {
		out := make([]BatchItem, len(ids))
		for i, id := range ids {
			out[i].ID = id
		}
		return out
	}
	if err := ValidateBatchIDs(items("a", "b", "")); err != nil {
		t.Errorf("unique ids = %v, want nil", err)
	}
	// Empty IDs may repeat: they mean "correlate by position".
	if err := ValidateBatchIDs(items("", "", "")); err != nil {
		t.Errorf("empty ids = %v, want nil", err)
	}
	if err := ValidateBatchIDs(items("a", "b", "a")); err == nil {
		t.Error("duplicate ids accepted, want error")
	}
}
