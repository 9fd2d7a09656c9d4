//! The load generator, on one pipelined Unix connection.
//!
//! [`run`] is the open loop, on two threads: the calling thread sends
//! each frame when it falls due (sleeping, then spinning the last
//! [`SPIN_NS`]), whatever is still outstanding (frames that fell due
//! together go out in one write); a receiver thread timestamps every
//! answer frame as it completes. Latency is taken from
//! the due time, so a stall also counts against the requests queued
//! behind it. [`saturate`] keeps a fixed window of requests outstanding
//! on one thread, for the daemon's throughput.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tdmatch_serve::protocol::{write_frame, FrameError, FrameReader};

use crate::trace::Tracer;

/// How long before a due time the sender stops sleeping and spins. A
/// sleeping thread wakes late by the host's wake-up latency (about 70 µs
/// at the median on a small VM), and since latency counts from the due
/// time, that lateness of the generator would count against the daemon.
/// At 400 req/s the spin costs an eighth of one core.
pub const SPIN_NS: u64 = 300_000;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Shot {
    /// Wire id (echoed in the answer).
    pub id: u64,
    /// When it falls due, ns after the phase starts.
    pub due_ns: u64,
    /// The complete frame: length prefix plus payload.
    pub frame: Vec<u8>,
    /// Whether the send of this request is traced.
    pub traced: bool,
}

impl Shot {
    /// Frames request JSON `text` due at `due_ns`.
    pub fn new(id: u64, due_ns: u64, text: &str, traced: bool) -> Self {
        let mut frame = Vec::with_capacity(text.len() + 5);
        write_frame(&mut frame, text).expect("writing into a Vec cannot fail");
        Shot {
            id,
            due_ns,
            frame,
            traced,
        }
    }
}

/// One answer frame as received.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Receive time, ns after the phase starts.
    pub at_ns: u64,
    /// Payload (JSON text without the length prefix).
    pub payload: Vec<u8>,
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Send time per shot (ns after the phase start), `None` if unsent.
    pub sent_ns: Vec<Option<u64>>,
    /// Every answer frame, in arrival order.
    pub answers: Vec<Answer>,
    /// Outstanding requests sampled at every write.
    pub backlog: Vec<usize>,
    /// Latest send relative to its due time, ms.
    pub late_ms_max: f64,
}

/// Sends `shots` on `stream` on schedule (due times count from
/// `origin`) until they run out or `stop` is raised, then waits up to
/// `drain` for the outstanding answers.
pub fn run(
    stream: &UnixStream,
    shots: &[Shot],
    origin: Instant,
    stop: Option<&AtomicBool>,
    drain: Duration,
    tracer: &Tracer,
) -> std::io::Result<Phase> {
    let mut writer = stream.try_clone()?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(20)))?;
    // Buffered, so that answers arriving together cost one read call.
    let mut reader = std::io::BufReader::with_capacity(1 << 16, reader);
    let received = AtomicUsize::new(0);
    let sent = AtomicUsize::new(0);
    let sending = AtomicBool::new(true);
    let ns = || origin.elapsed().as_nanos() as u64;

    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| -> std::io::Result<Vec<Answer>> {
            let mut frames = FrameReader::new();
            let mut answers = Vec::with_capacity(shots.len());
            let mut deadline: Option<Instant> = None;
            loop {
                match frames.next(&mut reader) {
                    Ok(Some(payload)) => {
                        answers.push(Answer {
                            at_ns: ns(),
                            payload,
                        });
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(None) => return Ok(answers),
                    Err(FrameError::Io(e))
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(e) => return Err(std::io::Error::other(e.to_string())),
                }
                if !sending.load(Ordering::SeqCst) {
                    if received.load(Ordering::SeqCst) >= sent.load(Ordering::SeqCst) {
                        return Ok(answers);
                    }
                    let d = *deadline.get_or_insert_with(|| Instant::now() + drain);
                    if Instant::now() >= d {
                        return Ok(answers);
                    }
                }
            }
        });

        let mut phase = Phase {
            sent_ns: vec![None; shots.len()],
            ..Phase::default()
        };
        let mut send_error = None;
        let mut batch = Vec::new();
        let mut i = 0;
        while i < shots.len() {
            if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                break;
            }
            // Sleep to just short of the due time, then spin to it.
            let now = ns();
            if shots[i].due_ns > now + SPIN_NS {
                std::thread::sleep(Duration::from_nanos(shots[i].due_ns - now - SPIN_NS));
            }
            while ns() < shots[i].due_ns {
                std::hint::spin_loop();
            }
            // Every shot due by now goes out in one write call.
            let at = ns();
            let first = i;
            batch.clear();
            while i < shots.len() && shots[i].due_ns <= at {
                batch.extend_from_slice(&shots[i].frame);
                i += 1;
            }
            let start = tracer.now();
            if let Err(e) = writer.write_all(&batch) {
                send_error = Some(e);
                break;
            }
            for shot in &shots[first..i] {
                if shot.traced {
                    tracer.close(tracer.open(), 0, "loadgen.send", start, shot.id);
                }
                phase.late_ms_max = phase
                    .late_ms_max
                    .max(at.saturating_sub(shot.due_ns) as f64 / 1e6);
            }
            phase.sent_ns[first..i].fill(Some(at));
            let count = i - first;
            let outstanding =
                sent.fetch_add(count, Ordering::SeqCst) + count - received.load(Ordering::SeqCst);
            phase.backlog.push(outstanding);
        }
        sending.store(false, Ordering::SeqCst);
        let answers = receiver.join().expect("receiver thread panicked")?;
        if let Some(e) = send_error {
            return Err(e);
        }
        phase.answers = answers;
        Ok(phase)
    })
}

/// True when the backlog grew across a phase: its last quarter sits
/// above both its first quarter and what `rate` requests answered within
/// `limit_ms` would keep in flight.
pub fn backlog_grows(backlog: &[usize], rate: f64, limit_ms: f64) -> bool {
    if backlog.len() < 4 {
        return false;
    }
    let quarter = backlog.len() / 4;
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let head = mean(&backlog[..quarter]);
    let tail = mean(&backlog[backlog.len() - quarter..]);
    let allowance = rate * limit_ms / 1000.0 + 1.0;
    tail > allowance && tail > 2.0 * head.max(1.0)
}

/// What a saturation phase observed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Saturation {
    /// Answers received.
    pub answers: usize,
    /// When the last answer arrived, ns after the first send.
    pub last_ns: u64,
}

impl Saturation {
    /// Answers per second, from the first send to the last answer.
    pub fn rate(&self) -> f64 {
        self.answers as f64 / (self.last_ns.max(1) as f64 / 1e9)
    }
}

/// Keeps `window` requests outstanding on `stream` for `duration`: every
/// answer releases the next frame of `ring`, which repeats from its
/// start when it runs out (their due times are ignored; `ring` must be
/// longer than `window`, so that no id is outstanding twice), and is
/// then handed to `on_answer` while the daemon works on the rest. Then
/// waits for the outstanding answers. Fails when the daemon goes quiet
/// for `drain`.
pub fn saturate(
    stream: &UnixStream,
    ring: &[Shot],
    window: usize,
    duration: Duration,
    drain: Duration,
    mut on_answer: impl FnMut(&[u8]),
) -> std::io::Result<Saturation> {
    assert!(ring.len() > window, "the ring must outnumber the window");
    let mut writer = stream.try_clone()?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(drain))?;
    let mut reader = BufReader::with_capacity(1 << 16, reader);
    let mut frames = FrameReader::new();
    let origin = Instant::now();
    let first: Vec<u8> = ring[..window]
        .iter()
        .flat_map(|s| s.frame.iter().copied())
        .collect();
    writer.write_all(&first)?;
    let mut sent = window;
    let mut out = Saturation::default();
    while out.answers < sent {
        let payload = match frames.next(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Err(FrameError::Io(e)) => return Err(e),
            Err(e) => return Err(std::io::Error::other(e.to_string())),
        };
        out.answers += 1;
        out.last_ns = origin.elapsed().as_nanos() as u64;
        if origin.elapsed() < duration {
            writer.write_all(&ring[sent % ring.len()].frame)?;
            sent += 1;
        }
        on_answer(&payload);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_backlog_is_not_growth() {
        assert!(!backlog_grows(&[3, 5, 4, 6, 3, 5, 4, 5], 1000.0, 10.0));
        // Small but rising queues stay inside the in-flight allowance.
        assert!(!backlog_grows(&[0, 1, 2, 3, 4, 5, 6, 7], 1000.0, 10.0));
        assert!(!backlog_grows(&[1, 2], 1000.0, 10.0));
    }

    #[test]
    fn rising_backlog_is_growth() {
        let rising: Vec<usize> = (0..40).map(|i| i * 10).collect();
        assert!(backlog_grows(&rising, 1000.0, 10.0));
        // A high but flat queue did not grow within the phase.
        assert!(!backlog_grows(&[300; 40], 1000.0, 10.0));
        // The allowance scales with the rate and the latency limit.
        let slow: Vec<usize> = (0..40).map(|i| i / 4).collect();
        assert!(backlog_grows(&slow, 100.0, 10.0));
        assert!(!backlog_grows(&slow, 1000.0, 10.0));
    }

    #[test]
    fn saturation_rate_counts_answers_over_the_phase() {
        let s = Saturation {
            answers: 4,
            last_ns: 1_000_000_000,
        };
        assert_eq!(s.rate(), 4.0);
        assert_eq!(Saturation::default().rate(), 0.0);
    }
}
