package api

import "fmt"

// Catalog is the GET /v1/workloads body: the fixed Table I benchmarks plus
// the parameterized families.
type Catalog struct {
	Workloads []Workload `json:"workloads"`
	Families  []Family   `json:"families"`
}

// Workload is one built-in benchmark listing. Knobs holds its one knob,
// size, in the families' shape.
type Workload struct {
	Name        string `json:"name"`
	Category    string `json:"category"`
	Description string `json:"description"`
	DataSet     string `json:"data_set"`
	Knobs       []Knob `json:"knobs"`
}

// Family is one parameterized workload family listing: its knob schema with
// ranges and defaults, plus the canonical all-defaults instance name as a
// template.
type Family struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Knobs       []Knob `json:"knobs"`
	Example     string `json:"example"`
}

// Knob is one typed family parameter. Values are integers; Pow2 constrains
// them to powers of two within [Min, Max].
type Knob struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Min         int    `json:"min"`
	Max         int    `json:"max"`
	Default     int    `json:"default"`
	Pow2        bool   `json:"pow2,omitempty"`
}

// Check reports whether v is an admissible value of the knob.
func (k Knob) Check(v int) error {
	if v < k.Min || v > k.Max {
		return fmt.Errorf("knob %s=%d out of range [%d, %d]", k.Name, v, k.Min, k.Max)
	}
	if k.Pow2 && v&(v-1) != 0 {
		return fmt.Errorf("knob %s=%d must be a power of two", k.Name, v)
	}
	return nil
}

// FamilySpec selects one family instance in a classify or job request: a
// family name plus knob overrides. Omitted knobs take their schema defaults.
type FamilySpec struct {
	Name  string         `json:"name"`
	Knobs map[string]int `json:"knobs,omitempty"`
}
