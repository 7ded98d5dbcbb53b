//! The benchmark's workloads: which program runs on which backend, and the
//! oracle each run's output is checked against.
//!
//! Inputs are the bench-scale programs of the `repro perf` harness. Every
//! workload runs on `ClusterConfig` defaults apart from its backend and node
//! count, so a change that deletes a knob or moves a default is measured
//! rather than breaking the benchmark.

use jsplit_apps::{raytracer, series, tsp};
use jsplit_mjvm::class::Program;
use jsplit_runtime::Backend;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Ray,
    Tsp,
    Series,
}

pub struct Workload {
    /// As in `BENCHMARK.json`, which records why each workload exists.
    pub name: &'static str,
    pub app: App,
    pub backend: Backend,
    pub nodes: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ray-sim8",
        app: App::Ray,
        backend: Backend::Sim,
        nodes: 8,
    },
    Workload {
        name: "tsp-sockets2",
        app: App::Tsp,
        backend: Backend::Sockets,
        nodes: 2,
    },
    Workload {
        name: "series-threads2",
        app: App::Series,
        backend: Backend::Threads,
        nodes: 2,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Program size: `Bench` is the measured scale; `Smoke` is the test scale
/// the self-tests use to exercise the harness in seconds; `Trivial` is one
/// Series program that does next to nothing, whatever the app, for timing a
/// backend's fixed costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Smoke,
    Trivial,
}

/// One workload's concrete input.
#[derive(Debug, Clone, Copy)]
pub struct Input {
    pub app: App,
    pub scale: Scale,
}

impl Input {
    fn tsp(&self) -> tsp::TspParams {
        let n = if self.scale == Scale::Bench { 13 } else { 9 };
        tsp::TspParams { n, seed: 42, depth: 3, threads: 16 }
    }

    fn series(&self) -> series::SeriesParams {
        if self.scale == Scale::Bench {
            series::SeriesParams { n: 256, intervals: 4000, threads: 16 }
        } else {
            series::SeriesParams { n: 96, intervals: 1000, threads: 16 }
        }
    }

    fn ray(&self) -> raytracer::RayParams {
        let size = if self.scale == Scale::Bench { 360 } else { 48 };
        raytracer::RayParams { size, grid: 4, threads: 16 }
    }

    pub fn program(&self) -> Program {
        if self.scale == Scale::Trivial {
            return series::program(series::SeriesParams { n: 1, intervals: 2, threads: 1 });
        }
        match self.app {
            App::Tsp => tsp::program(self.tsp()),
            App::Series => series::program(self.series()),
            App::Ray => raytracer::program(self.ray()),
        }
    }

    /// The expected console output from a Rust-side oracle, or `None` when
    /// the oracle is the unrewritten program on the baseline VM (Series),
    /// which the caller must run.
    pub fn native_oracle(&self) -> Option<Vec<String>> {
        match self.app {
            App::Tsp => Some(vec![tsp::solve_reference(&self.tsp()).to_string()]),
            App::Ray => Some(vec![raytracer::reference_checksum(&self.ray()).to_string()]),
            App::Series => None,
        }
    }
}

