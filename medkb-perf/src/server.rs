//! The server under test, as a separate process.
//!
//! The benchmark binary re-executes itself as `medkb-perf serve --store
//! <image>`: the child opens the `WorldStore` image, attaches a metrics
//! registry exactly as `medkb-cli serve` does, starts the HTTP front end
//! with the default `HttpConfig` and `ServeConfig` on an ephemeral port,
//! prints `listening <addr>`, and serves until its stdin closes.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use medkb_core::ObsConfig;
use medkb_obs::Registry;
use medkb_serve::{HttpConfig, HttpServer, RelaxServer, ServeConfig};
use medkb_store::WorldStore;

use crate::client::Client;
use crate::inputs::{peak_rss_mb, serve_config};

/// Child side: serve the store image at `store` until stdin closes.
pub fn serve_main(store: &Path) -> Result<(), String> {
    let out = WorldStore::open(store).map_err(|e| format!("store open: {e}"))?;
    let registry = Registry::shared();
    let config = medkb_core::RelaxConfig {
        obs: ObsConfig::with_registry(Arc::clone(&registry)),
        ..serve_config()
    };
    let server = Arc::new(RelaxServer::new(out, config, ServeConfig::default()));
    let http = HttpServer::start(server, Some(registry), HttpConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    println!("listening {}", http.addr());
    // Serve until the load generator closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    http.shutdown();
    Ok(())
}

/// A running server process. Dropping it stops the process and waits for
/// it to exit.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The bound address.
    pub addr: SocketAddr,
    /// Seconds from spawning the process to its first `/health` 200.
    pub setup_s: f64,
}

impl ServerProcess {
    /// Spawn a server over the store image at `store` and wait until it
    /// answers `/health`.
    pub fn spawn(store: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut process = Self {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read server address: {e}"))?;
        process.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not start (said {line:?})"))?;
        let health = Client::connect(process.addr)
            .and_then(|mut c| c.call("GET", "/health", None))
            .map_err(|e| format!("health check: {e}"))?;
        if health.status != 200 {
            return Err(format!("health check answered {}", health.status));
        }
        process.setup_s = started.elapsed().as_secs_f64();
        Ok(process)
    }

    /// Peak resident set of the server process so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id()).map_err(|e| format!("read server VmHWM: {e}"))
    }

    /// Close the server's stdin and wait for it to exit (killing it if it
    /// has not exited within ten seconds).
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop within 10 s; killed".into());
                }
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Server processes started per run; `setup_s` is the median of their
/// set-up times.
pub const SETUPS: usize = 3;

/// Spawn [`SETUPS`] servers over `store` one after another, stopping all
/// but the last; returns the last one and every set-up time.
pub fn spawn_measured(store: &Path) -> Result<(ServerProcess, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let s = ServerProcess::spawn(store)?;
        setups.push(s.setup_s);
        s.stop()?;
    }
    let s = ServerProcess::spawn(store)?;
    setups.push(s.setup_s);
    Ok((s, setups))
}
