//! Child processes: spawn `fi`, capture its output, and read the kernel's
//! high-water RSS of exactly that process.
//!
//! `std::process::Child::wait` discards the resource usage the kernel
//! reports for a reaped child, so reaping goes through `wait4(2)`
//! directly. std already links the C library, so no crate is added.

use std::io::{self, Read};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("e2ebench reads `struct rusage` in its 64-bit Linux layout");

/// `struct rusage` on 64-bit Linux: two `struct timeval`, then 14 `long`s,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    _times: [i64; 4],
    maxrss: i64,
    _rest: [i64; 13],
}

const _: () = assert!(std::mem::size_of::<RUsage>() == 144);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reaps child `pid`; returns its exit status and peak RSS in KiB.
fn reap(pid: u32) -> io::Result<(ExitStatus, u64)> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage {
        _times: [0; 4],
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: both pointers refer to live, writable locals of the types
        // wait4(2) writes (the rusage layout is checked above for the only
        // target this compiles on), and both outlive the call.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            let peak = u64::try_from(usage.maxrss).unwrap_or(0);
            return Ok((ExitStatus::from_raw(status), peak));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A child that ran to completion.
#[derive(Debug)]
pub struct Finished {
    pub status: ExitStatus,
    pub stdout: String,
    pub stderr: String,
    /// Kernel high-water resident set size, KiB.
    pub peak_rss_kib: u64,
    /// From spawn to reap.
    pub wall_s: f64,
}

/// A running child; killed and reaped if dropped before [`Proc::finish`].
pub struct Proc {
    child: Child,
    started: Instant,
    reaped: bool,
}

impl Proc {
    /// Spawns `program args` in `cwd` with stdout and stderr piped.
    pub fn spawn(program: &Path, args: &[String], cwd: &Path) -> io::Result<Self> {
        let started = Instant::now();
        let child = Command::new(program)
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        Ok(Self {
            child,
            started,
            reaped: false,
        })
    }

    /// Seconds since just before the spawn.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Takes the stderr pipe, to read it while the child runs.
    pub fn take_stderr(&mut self) -> Option<ChildStderr> {
        self.child.stderr.take()
    }

    /// Reads stdout (and stderr, unless taken) to the end, then reaps.
    pub fn finish(mut self) -> io::Result<Finished> {
        let mut stdout = String::new();
        if let Some(mut pipe) = self.child.stdout.take() {
            pipe.read_to_string(&mut stdout)?;
        }
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            pipe.read_to_string(&mut stderr)?;
        }
        let (status, peak_rss_kib) = reap(self.child.id())?;
        self.reaped = true;
        Ok(Finished {
            status,
            stdout,
            stderr,
            peak_rss_kib,
            wall_s: self.elapsed_s(),
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = reap(self.child.id());
        }
    }
}

/// Runs `program args` in `cwd` to completion.
pub fn run(program: &Path, args: &[String], cwd: &Path) -> io::Result<Finished> {
    Proc::spawn(program, args, cwd)?.finish()
}

/// Allocates and touches `mib` MiB. The peak-RSS self-test runs this in a
/// child process of known allocation.
pub fn touch_memory(mib: usize) -> u64 {
    let mut buf = vec![0u8; mib << 20];
    for page in buf.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&buf)
        .iter()
        .step_by(4096)
        .map(|&b| u64::from(b))
        .sum()
}
