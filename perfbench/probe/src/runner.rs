//! A small co-process that runs the reference kernel and spawns program
//! processes on request, reporting each child's wall time, CPU time and
//! peak resident set.
//!
//! It exists so that children are spawned from a process whose own
//! resident set stays at a few MiB: Linux carries the spawning process's
//! high-water mark into the child's `ru_maxrss`, so a child spawned from
//! the Python harness would report the interpreter's memory, not its own.
//!
//! Protocol, one line each way (fields tab-separated in requests):
//!
//! ```text
//! -> ref                 <- ref <ns> <checksum>
//! -> run\tPROG\tARG...   <- run <exit code or -signal> <wall ns> <cpu ns> <maxrss KiB>
//! -> quit                (or end of input)
//! ```

use crate::refkernel;
use std::hint::black_box;
use std::io::{self, BufRead, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the runner's wait4 binding assumes 64-bit Linux");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one child process cost.
struct Usage {
    code: i32,
    cpu_ns: u64,
    maxrss_kib: i64,
}

/// Reaps `pid` and returns its exit code (negated signal number when it was
/// killed), CPU time and peak resident set.
fn reap(pid: u32) -> io::Result<Usage> {
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    loop {
        // SAFETY: `status` and `ru` are live, writable locals laid out as
        // the C `int` and 64-bit Linux `struct rusage` wait4 fills in.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    let tv_ns = |t: &Timeval| (t.sec as u64) * 1_000_000_000 + (t.usec as u64) * 1000;
    Ok(Usage {
        code,
        cpu_ns: tv_ns(&ru.utime) + tv_ns(&ru.stime),
        maxrss_kib: ru.maxrss,
    })
}

/// Serves requests from stdin until `quit` or end of input.
pub fn serve() -> io::Result<()> {
    let stdin = io::stdin();
    let mut out = io::stdout().lock();
    writeln!(out, "ready {}", refkernel::NOMINAL_NS_PX)?;
    out.flush()?;
    for line in stdin.lock().lines() {
        let line = line?;
        let mut fields = line.split('\t');
        match fields.next() {
            Some("ref") => {
                let start = Instant::now();
                let sum = black_box(refkernel::run());
                let ns = start.elapsed().as_nanos();
                writeln!(out, "ref {ns} {}", sum & 0xffff)?;
            }
            Some("run") => {
                let argv: Vec<&str> = fields.collect();
                let Some((prog, args)) = argv.split_first() else {
                    return Err(io::Error::other("run needs a program"));
                };
                let start = Instant::now();
                let child = Command::new(prog)
                    .args(args)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()?;
                let usage = reap(child.id())?;
                let wall_ns = start.elapsed().as_nanos();
                writeln!(
                    out,
                    "run {} {wall_ns} {} {}",
                    usage.code, usage.cpu_ns, usage.maxrss_kib
                )?;
            }
            Some("quit") | None => break,
            Some(other) => return Err(io::Error::other(format!("unknown request {other:?}"))),
        }
        out.flush()?;
    }
    Ok(())
}
