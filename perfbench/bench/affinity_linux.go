package bench

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set for up to 1024 processors.
type cpuMask [16]uint64

func (m *cpuMask) call(trap uintptr) error {
	if _, _, e := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// OnEachCPU runs fn pinned to each processor this process may use, in
// turn, and returns the results in processor order. Micro-timings on a
// virtual machine can differ by half between its processors; measuring
// on every one keeps the figure from depending on where the scheduler
// happened to put the calling thread.
func OnEachCPU(fn func() float64) ([]float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed cpuMask
	if err := allowed.call(syscall.SYS_SCHED_GETAFFINITY); err != nil {
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	var out []float64
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		var one cpuMask
		one[cpu/64] = 1 << (cpu % 64)
		if err := one.call(syscall.SYS_SCHED_SETAFFINITY); err != nil {
			allowed.call(syscall.SYS_SCHED_SETAFFINITY)
			return nil, fmt.Errorf("sched_setaffinity cpu %d: %w", cpu, err)
		}
		out = append(out, fn())
	}
	if err := allowed.call(syscall.SYS_SCHED_SETAFFINITY); err != nil {
		return nil, fmt.Errorf("restore affinity: %w", err)
	}
	return out, nil
}
