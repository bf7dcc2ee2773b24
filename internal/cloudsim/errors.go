package cloudsim

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
)

// Sentinel errors classify protocol failures so clients (RemoteTrainer)
// can distinguish fatal mismatches from transient transport faults with
// errors.Is instead of string matching.
var (
	// ErrProtocolVersion marks version skew between client and server:
	// retrying the same binary cannot succeed.
	ErrProtocolVersion = errors.New("cloudsim: protocol version mismatch")
	// ErrFrameTooLarge marks a frame over the agreed payload bound, on
	// either the write side (fail fast, nothing hits the wire) or the read
	// side (header rejected before allocation).
	ErrFrameTooLarge = errors.New("cloudsim: frame exceeds size limit")
	// ErrUnknownFrame marks an unrecognised frame type mid-stream — a
	// corrupted or foreign stream, not retryable.
	ErrUnknownFrame = errors.New("cloudsim: unknown frame type")
	// ErrServerShutdown is the wire-borne "server shutting down, retry
	// elsewhere" signal: the server drained the job at an epoch boundary
	// (streaming an epoch-aligned checkpoint first) and refused further
	// work. It is the one server-reported error that IS retryable.
	ErrServerShutdown = errors.New("cloudsim: server shutting down")
	// ErrJobPanic marks a job that crashed server-side. The panic was
	// recovered and converted to a wire error instead of a torn
	// connection; retrying the same deterministic job would panic again,
	// so it is fatal.
	ErrJobPanic = errors.New("cloudsim: job panicked on server")
	// ErrUnknownJob marks a poll/attach/cancel aimed at a job ID the
	// scheduler has never issued (or a different server). Retrying the
	// same ID at the same server cannot succeed, so it is fatal.
	ErrUnknownJob = errors.New("cloudsim: unknown job ID")
	// ErrQueueFull is the scheduler's global admission reject: the bounded
	// queue is at capacity. Backpressure, not failure — transient.
	ErrQueueFull = errors.New("cloudsim: scheduler queue full")
	// ErrTenantQuota is the per-tenant admission reject: this tenant
	// already holds its fair share of queue slots. Also transient — slots
	// free as the tenant's jobs drain.
	ErrTenantQuota = errors.New("cloudsim: tenant queue quota exceeded")
	// ErrBadRequest marks a request the server validated and refused:
	// inconsistent model spec, mismatched dataset shapes, out-of-range
	// hyperparameters. The request itself is wrong, so resending the same
	// bytes cannot succeed — fatal.
	ErrBadRequest = errors.New("cloudsim: invalid job request")
	// ErrUnknownOptimizer marks a job naming an optimiser or schedule kind
	// this server's registry does not implement. Retrying the same spec at
	// the same server cannot succeed — fatal, like ErrBadRequest, but
	// distinguishable so clients can tell "bad hyperparameters" from "this
	// server is too old for the requested optimiser".
	ErrUnknownOptimizer = errors.New("cloudsim: unknown optimiser kind")
	// ErrUnclassified marks a peer's error that carried no class: a
	// msgError frame under code 0, which the sender writes for an error
	// wrapping no sentinel, or under a code no row assigns. Nothing here
	// wraps it to send; it only names what the other end left unclassified.
	// With no class to read, resending cannot be known to help — fatal.
	ErrUnclassified = errors.New("cloudsim: unclassified server error")
)

// taxonomy is the wire error taxonomy, said once: the code each sentinel
// travels under as the first byte of a msgError payload, and whether an
// error wrapping it is worth retrying. errCodeOf, sentinelFor and
// IsTransient are read off it (first matching row wins), and errtaxcheck
// requires every Err* sentinel of the package to be a row. Fatal rows come
// first: an error wrapping both a fatal and a transient sentinel is fatal
// — resending a request the server refused cannot succeed, whatever else
// went wrong beside it.
var taxonomy = []struct {
	code      byte
	sentinel  error
	transient bool
}{
	{errCodeGeneric, ErrUnclassified, false},
	{1, ErrProtocolVersion, false},
	{2, ErrFrameTooLarge, false},
	{3, ErrUnknownFrame, false},
	{5, ErrJobPanic, false},
	{6, ErrUnknownJob, false},
	{9, ErrBadRequest, false},
	{10, ErrUnknownOptimizer, false},
	// Admission rejects are backpressure: the queue drains as executors
	// finish jobs, so a later retry can succeed.
	{7, ErrQueueFull, true},
	{8, ErrTenantQuota, true},
	{4, ErrServerShutdown, true},
}

// IsTransient reports whether err is worth retrying against the same or
// another server: transport faults (dial/reset/EOF/deadline) and graceful
// server shutdown are; protocol mismatches, wire corruption, server-side
// panics, and the caller's own context cancellation are not.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	// The caller's own cancellation must win over any transport-level
	// symptom it caused (closed connections surface as net errors).
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	for _, row := range taxonomy {
		if errors.Is(err, row.sentinel) {
			return row.transient
		}
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// errCodeGeneric is the code of an error that wraps no sentinel, and the
// row of ErrUnclassified.
const errCodeGeneric byte = 0

// errCodeOf classifies an error for the wire.
func errCodeOf(err error) byte {
	for _, row := range taxonomy {
		if errors.Is(err, row.sentinel) {
			return row.code
		}
	}
	return errCodeGeneric
}

// sentinelFor maps a wire error code back to its sentinel: ErrUnclassified
// for code 0 and for a code no row assigns.
func sentinelFor(code byte) error {
	for _, row := range taxonomy {
		if row.code == code {
			return row.sentinel
		}
	}
	return ErrUnclassified
}
