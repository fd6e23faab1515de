package dist

// powKernel disables the cached-log power kernel: math.Pow is assembly
// on s390x, and the kernel replays only the pure-Go implementation.
const powKernel = false
