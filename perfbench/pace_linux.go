//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

const (
	clockMonotonic = 1
	tfdCloexec     = syscall.O_CLOEXEC
	tfdNonblock    = syscall.O_NONBLOCK
)

// pacer waits for the moments requests are due on a timerfd, which the
// runtime's network poller wakes within microseconds. time.Sleep rounds
// the poller's timeout to whole milliseconds and overshoots by about
// half a millisecond, several times the service times being measured.
type pacer struct {
	fd uintptr  // owned by f; kept raw because f.Fd would make it blocking
	f  *os.File // registered with the network poller
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// wakeEarly is how long before due the timer fires; the pacer polls the
// clock for the rest, so the poller's wake-up latency does not make the
// request late.
const wakeEarly = 100 * time.Microsecond

// waitUntil returns once due has passed.
func (p *pacer) waitUntil(due time.Time) error {
	defer func() {
		for time.Now().Before(due) {
			runtime.Gosched() // a loop that only reads the clock is hard to preempt
		}
	}()
	d := time.Until(due) - wakeEarly
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(d.Nanoseconds())}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (p *pacer) close() error { return p.f.Close() }
