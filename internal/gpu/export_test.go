package gpu

import "critload/internal/ptx"

// TakeIdle takes the newest idle device of cfg's architecture out of the
// idle list as it lies there, unbound; nil when there is none. Release puts
// it back.
func TakeIdle(cfg Config) *GPU { return takeIdle(cfg) }

// ClassifiedKernels lists the kernels the device holds classifications for.
func (g *GPU) ClassifiedKernels() []*ptx.Kernel {
	var ks []*ptx.Kernel
	for k := range g.classCache {
		ks = append(ks, k)
	}
	return ks
}
