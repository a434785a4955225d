package core

import (
	"fmt"
	"io"

	"qfw/internal/faults"
)

// FaultyExecutor wraps any executor in a deterministic fault injector —
// the harness the robustness tests and the ablation-faults bench drive
// real execution paths through. Every execution probes the injector with
// a stable per-element key (spec hash + effective seed) before touching
// the wrapped backend, so which elements fail is a pure function of the
// schedule, not of worker interleaving, and a faulted run recovering
// through retries must reproduce the clean run bit for bit.
//
// Launch arms one per backend when the QFW_FAULTS environment schedule is
// set; tests construct them directly around fakes or live executors.
type FaultyExecutor struct {
	inner Executor
	inj   *faults.Injector
	name  string
	batch BatchExecutor // inner, behind asBatch when it lacks batch support
}

// NewFaultyExecutor wraps inner with the injector. The wrapper keeps the
// inner executor's name (WithName overrides it) and capability row.
func NewFaultyExecutor(inner Executor, inj *faults.Injector) *FaultyExecutor {
	return &FaultyExecutor{inner: inner, inj: inj, name: inner.Name(), batch: asBatch(inner, NewParseCache())}
}

// WithName renames the wrapper (the registrable "faulty" test backend)
// and returns it.
func (f *FaultyExecutor) WithName(name string) *FaultyExecutor {
	f.name = name
	return f
}

// Injector exposes the armed injector (tests read its counters).
func (f *FaultyExecutor) Injector() *faults.Injector { return f.inj }

// Inner exposes the wrapped executor.
func (f *FaultyExecutor) Inner() Executor { return f.inner }

// Name implements Executor.
func (f *FaultyExecutor) Name() string { return f.name }

// Capabilities implements Executor: the inner row under the wrapper's name.
func (f *FaultyExecutor) Capabilities() Capabilities {
	caps := f.inner.Capabilities()
	caps.Backend = f.name
	return caps
}

// Close releases hung injections and closes the inner executor when it
// holds resources (the cloud backend's embedded service).
func (f *FaultyExecutor) Close() error {
	f.inj.Close()
	if closer, ok := f.inner.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

// elemKey is the stable injection key of one execution element. Seeds are
// normalized through ForElement(0) so an implicit zero seed and its
// explicit default hash identically.
func elemKey(spec CircuitSpec, opts RunOptions, kind string) string {
	return fmt.Sprintf("%s:%s:%d", spec.Hash(), kind, opts.ForElement(0).Seed)
}

// Execute implements Executor.
func (f *FaultyExecutor) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	if err := f.inj.Before(elemKey(spec, opts, "x")); err != nil {
		return ExecResult{}, err
	}
	return f.inner.Execute(spec, opts)
}

// ExecuteBatch implements BatchExecutor. Elements are probed in order and
// the first selected element consumes its injected failure and fails the
// whole chunk — the batch-native failure shape the QPM's element-isolated
// degradation exists for. Re-executed as single-element chunks, the
// already-consumed element passes while untouched marked elements fail
// once more and then recover, so degradation always terminates.
func (f *FaultyExecutor) ExecuteBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	for i := range bindings {
		if err := f.inj.Before(elemKey(spec, opts.ForElement(i), "x")); err != nil {
			return nil, fmt.Errorf("batch element %d: %w", i, err)
		}
	}
	return f.batch.ExecuteBatch(spec, bindings, opts)
}

// ExecuteGradient implements GradientExecutor when the inner executor
// does; gradients are one work item, so the batch probes a single key.
func (f *FaultyExecutor) ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	ge, ok := f.inner.(GradientExecutor)
	if !ok {
		return nil, fmt.Errorf("faulty[%s]: inner backend does not support gradient execution", f.name)
	}
	if err := f.inj.Before(elemKey(spec, opts, "grad")); err != nil {
		return nil, err
	}
	return ge.ExecuteGradient(spec, bindings, opts)
}
