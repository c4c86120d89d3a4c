package families

import (
	"testing"

	"critload/internal/ptx"
)

// FuzzFamilySpec feeds arbitrary workload names through the family path.
// ParseName, Resolve and Build never panic, and every spec Resolve admits
// builds a kernel within the parser's register and predicate caps.
func FuzzFamilySpec(f *testing.F) {
	for _, fam := range List() {
		name, _ := (&Spec{Name: fam.Name}).CanonicalName()
		f.Add(name)
	}
	f.Add("family:stream?size=4096&ctas=16&block=128")
	f.Add("family:mixed-dn?dn=0&loads=12&seed=1073741824")
	f.Add("family:indirect-chase?depth=99&width=-1")
	f.Add("family:shared-tile?size=100")
	f.Add("family:?&=")
	f.Fuzz(func(t *testing.T, name string) {
		s, err := ParseName(name)
		if err != nil {
			return
		}
		if _, _, err := s.Resolve(); err != nil {
			return
		}
		c, err := s.Build()
		if err != nil {
			t.Fatalf("admitted spec %q does not build: %v", name, err)
		}
		if k := c.Kernel; k.NumRegs > ptx.MaxRegs || k.NumPreds > ptx.MaxPreds {
			t.Fatalf("%q: %d registers and %d predicates, over the caps", name, k.NumRegs, k.NumPreds)
		}
	})
}
