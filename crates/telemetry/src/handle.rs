//! The shared, cheaply-cloneable telemetry handle threaded through the
//! engine, the NoC simulator, and the campaign layer.

use crate::registry::MetricRegistry;
use crate::trace::{TraceEvent, TraceSink};
use std::sync::{Arc, Mutex};

/// A metric registry plus an optional trace sink — one per enabled run.
#[derive(Debug, Default)]
pub struct Telemetry {
    pub registry: MetricRegistry,
    sink: Option<Box<dyn TraceSink>>,
}

impl Telemetry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Telemetry {
            registry: MetricRegistry::new(),
            sink: Some(sink),
        }
    }

    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    pub fn emit(&mut self, event: &TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.emit(event);
        }
    }

    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }
}

/// Handle carried by instrumented components (`GpuDevice`, `Mesh`,
/// campaigns). The default handle is **disabled**: every operation is a
/// single `Option` check with no allocation, locking, or event construction,
/// so the instrumented hot paths cost nothing unless a run opts in. Clones
/// share one underlying [`Telemetry`], so a device, two meshes, and the CLI
/// all feed the same registry and trace.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<Mutex<Telemetry>>>,
}

impl TelemetryHandle {
    /// The disabled (no-op) handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle with an empty registry and no trace sink.
    pub fn enabled() -> Self {
        Self::attach(Telemetry::new())
    }

    /// An enabled handle wrapping an existing [`Telemetry`].
    pub fn attach(telemetry: Telemetry) -> Self {
        TelemetryHandle {
            inner: Some(Arc::new(Mutex::new(telemetry))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` against the shared telemetry when enabled.
    pub fn with<R>(&self, f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|t| f(&mut t.lock().expect("telemetry lock")))
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        self.with(|t| t.registry.counter_add(name, delta));
    }

    pub fn gauge_set(&self, name: &str, value: f64) {
        self.with(|t| t.registry.gauge_set(name, value));
    }

    pub fn gauge_max(&self, name: &str, value: f64) {
        self.with(|t| t.registry.gauge_max(name, value));
    }

    pub fn hist_record(&self, name: &str, value: u64) {
        self.with(|t| t.registry.hist_record(name, value));
    }

    pub fn hist_record_n(&self, name: &str, value: u64, n: u64) {
        self.with(|t| t.registry.hist_record_n(name, value, n));
    }

    /// Emits a trace event, building it lazily: the closure only runs when a
    /// sink is attached, so disabled runs never construct the event.
    pub fn emit_with(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.inner {
            let mut t = t.lock().expect("telemetry lock");
            if t.has_sink() {
                let event = build();
                t.emit(&event);
            }
        }
    }

    /// Whether a trace sink is attached (events would actually be recorded).
    pub fn has_sink(&self) -> bool {
        self.with(|t| t.has_sink()).unwrap_or(false)
    }

    /// Copy of the current registry contents, `None` when disabled.
    pub fn snapshot_registry(&self) -> Option<MetricRegistry> {
        self.with(|t| t.registry.clone())
    }

    pub fn flush(&self) {
        self.with(|t| t.flush());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemorySink;

    #[test]
    fn disabled_handle_is_inert() {
        let h = TelemetryHandle::disabled();
        assert!(!h.is_enabled());
        h.counter_add("x", 1);
        h.emit_with(|| panic!("must not build events when disabled"));
        assert!(h.snapshot_registry().is_none());
    }

    #[test]
    fn clones_share_one_registry() {
        let h = TelemetryHandle::enabled();
        let h2 = h.clone();
        h.counter_add("x", 1);
        h2.counter_add("x", 2);
        assert_eq!(h.snapshot_registry().unwrap().counter("x"), 3);
    }

    #[test]
    fn emit_with_is_lazy_without_sink() {
        let h = TelemetryHandle::enabled();
        // Enabled but no sink: the closure must not run.
        h.emit_with(|| panic!("no sink attached"));

        let sink = MemorySink::new();
        let h = TelemetryHandle::attach(Telemetry::with_sink(Box::new(sink.clone())));
        h.emit_with(|| TraceEvent::new(1, "noc", "test"));
        h.flush();
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.snapshot()[0].event, "test");
    }
}
