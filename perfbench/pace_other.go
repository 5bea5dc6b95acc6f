//go:build !linux

package main

import "time"

// pacer waits for the moments requests are due. Outside Linux it falls
// back to time.Sleep, whose overshoot gen.late_us reports.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) waitUntil(due time.Time) error {
	time.Sleep(time.Until(due))
	return nil
}

func (p *pacer) close() error { return nil }
