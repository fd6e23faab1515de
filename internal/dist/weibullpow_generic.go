//go:build !s390x

package dist

// powKernel enables the cached-log power kernel: math.Pow is the pure-Go
// implementation the kernel replays step for step.
const powKernel = true
