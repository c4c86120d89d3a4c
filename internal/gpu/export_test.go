package gpu

import "critload/internal/ptx"

// PoolCount reports how many architectures have a device pool.
func PoolCount() int {
	n := 0
	pools.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TakeIdle takes an idle device of cfg's architecture out of its pool as it
// lies there, unbound; nil when the pool is empty. Release puts it back.
func TakeIdle(cfg Config) *GPU { return poolOf(cfg).get() }

// ClassifiedKernels lists the kernels the device holds classifications for.
func (g *GPU) ClassifiedKernels() []*ptx.Kernel {
	var ks []*ptx.Kernel
	for k := range g.classCache {
		ks = append(ks, k)
	}
	return ks
}
