//! [`MonitorSink`] implementation: the bridge from the ensemble drivers'
//! live event stream into the metrics registry.
//!
//! The standard `dgc_*` metric families live here, in one place, so the
//! exporter, the SLO specs and the dashboard agree on names. Handles are
//! resolved through the registry's get-or-create path on every event —
//! cheap (one mutex + BTreeMap probe) at simulation event rates, and it
//! keeps per-device label fan-out automatic.

use crate::registry::MonitorRegistry;
use dgc_obs::MonitorSink;

fn device(d: u32) -> Vec<(&'static str, String)> {
    vec![("device", d.to_string())]
}

impl MonitorSink for MonitorRegistry {
    fn instance_done(&self, device_n: u32, ok: bool, latency_s: f64) {
        let result = if ok { "ok" } else { "failed" };
        self.counter(
            "dgc_instances",
            "Instance attempt outcomes by result and device",
            &[("device", device_n.to_string()), ("result", result.into())],
        )
        .inc();
        self.histogram(
            "dgc_instance_latency_seconds",
            "Per-instance simulated end-to-end latency within a launch",
            &[],
        )
        .observe_seconds(latency_s);
    }

    fn instance_recovered(&self, device_n: u32) {
        self.counter(
            "dgc_instances_recovered",
            "Previously-failed instances that succeeded on a retry",
            &device(device_n),
        )
        .inc();
    }

    fn retry_scheduled(&self, device_n: u32) {
        self.counter(
            "dgc_retries",
            "Instance attempts queued for another recovery round",
            &device(device_n),
        )
        .inc();
    }

    fn oom_split(&self, new_batch: u32) {
        self.counter("dgc_oom_splits", "Batch halvings after OOM rounds", &[])
            .inc();
        self.gauge(
            "dgc_batch_size",
            "Current recovery batch size after OOM splits",
            &[],
        )
        .set(new_batch as f64);
    }

    fn backoff_wait(&self, seconds: f64) {
        self.counter_f(
            "dgc_backoff_seconds",
            "Wall time charged to recovery backoff waits",
            &[],
        )
        .add(seconds);
    }

    fn kernel_launch(&self, device_n: u32, instances: u32, busy_s: f64) {
        self.counter(
            "dgc_kernel_launches",
            "Kernel launches completed per device",
            &device(device_n),
        )
        .inc();
        self.counter_f(
            "dgc_device_busy_seconds",
            "Simulated device-lane busy time per device",
            &device(device_n),
        )
        .add(busy_s);
        self.counter(
            "dgc_instances_launched",
            "Instances carried by completed kernel launches",
            &device(device_n),
        )
        .add(instances as u64);
    }

    fn team_done(&self, device_n: u32, _done: u32, _total: u32) {
        self.counter(
            "dgc_teams_completed",
            "Teams that finished functional execution (mid-kernel liveness)",
            &device(device_n),
        )
        .inc();
    }

    fn heap_sample(&self, device_n: u32, in_use: u64, high_water: u64, capacity: u64) {
        let labels = device(device_n);
        self.gauge(
            "dgc_heap_in_use_bytes",
            "Device-heap bytes live after the most recent launch",
            &labels,
        )
        .set(in_use as f64);
        self.gauge(
            "dgc_heap_high_water_bytes",
            "Device-heap allocation high-water mark",
            &labels,
        )
        .set_max(high_water as f64);
        self.gauge("dgc_heap_capacity_bytes", "Device-heap capacity", &labels)
            .set(capacity as f64);
    }

    fn rpc_activity(&self, calls: u64, failures: u64) {
        if calls > 0 {
            self.counter("dgc_rpc_calls", "Host-RPC round trips", &[])
                .add(calls);
        }
        if failures > 0 {
            self.counter("dgc_rpc_failures", "Host-RPC round trips that errored", &[])
                .add(failures);
        }
    }

    fn device_dead(&self, device_n: u32) {
        self.counter(
            "dgc_devices_dead",
            "Whole-device deaths observed by the round loop",
            &device(device_n),
        )
        .inc();
    }

    fn utilization_sample(&self, device_n: u32, mean: f64) {
        self.gauge(
            "dgc_device_utilization",
            "Mean issue-slot utilization of the most recent launch",
            &device(device_n),
        )
        .set(mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_events_land_in_the_expected_families() {
        let reg = MonitorRegistry::new();
        let sink: &dyn MonitorSink = &reg;
        sink.instance_done(0, true, 0.001);
        sink.instance_done(0, true, 0.002);
        sink.instance_done(1, false, 0.100);
        sink.instance_recovered(1);
        sink.retry_scheduled(1);
        sink.oom_split(4);
        sink.backoff_wait(0.25);
        sink.kernel_launch(0, 8, 1.5);
        sink.team_done(0, 1, 8);
        sink.heap_sample(0, 100, 900, 1000);
        sink.heap_sample(0, 50, 400, 1000);
        sink.rpc_activity(10, 2);
        sink.rpc_activity(0, 0);
        sink.device_dead(1);
        sink.utilization_sample(0, 0.75);

        let ok = reg.counter(
            "dgc_instances",
            "",
            &[("device", "0".into()), ("result", "ok".into())],
        );
        assert_eq!(ok.get(), 2);
        let failed = reg.counter(
            "dgc_instances",
            "",
            &[("device", "1".into()), ("result", "failed".into())],
        );
        assert_eq!(failed.get(), 1);
        assert_eq!(
            reg.histogram("dgc_instance_latency_seconds", "", &[])
                .count(),
            3
        );
        assert_eq!(
            reg.counter("dgc_instances_recovered", "", &[("device", "1".into())])
                .get(),
            1
        );
        assert_eq!(reg.counter("dgc_oom_splits", "", &[]).get(), 1);
        assert_eq!(reg.gauge("dgc_batch_size", "", &[]).get(), 4.0);
        assert_eq!(reg.counter_f("dgc_backoff_seconds", "", &[]).get(), 0.25);
        assert_eq!(
            reg.counter_f("dgc_device_busy_seconds", "", &[("device", "0".into())])
                .get(),
            1.5
        );
        // High-water ratchets, in-use follows the last sample.
        assert_eq!(
            reg.gauge("dgc_heap_high_water_bytes", "", &[("device", "0".into())])
                .get(),
            900.0
        );
        assert_eq!(
            reg.gauge("dgc_heap_in_use_bytes", "", &[("device", "0".into())])
                .get(),
            50.0
        );
        assert_eq!(reg.counter("dgc_rpc_calls", "", &[]).get(), 10);
        assert_eq!(reg.counter("dgc_rpc_failures", "", &[]).get(), 2);
        assert_eq!(
            reg.counter("dgc_devices_dead", "", &[("device", "1".into())])
                .get(),
            1
        );
        assert_eq!(
            reg.gauge("dgc_device_utilization", "", &[("device", "0".into())])
                .get(),
            0.75
        );

        // The whole state renders as valid canonical OpenMetrics.
        let text = reg.render();
        let parsed = crate::openmetrics::parse(&text).unwrap();
        assert_eq!(parsed.render(), text);
    }
}
