//! Per-connection budget primitives enforced by the connection
//! [`edge`](crate::edge) of both `flow-server` and the `flow-router` fleet
//! front: a token-bucket request-rate limiter, a bounded line reader (so one
//! hostile client cannot buffer an unbounded request line), and a
//! constant-time token comparison for the `auth` connection preamble.

use std::io::{self, BufRead};
use std::time::Instant;

/// A token-bucket rate limiter: `per_sec` tokens refill continuously up to
/// a `burst` ceiling, and each admitted request spends one token.
///
/// Single-threaded by design — each connection's reader owns one — so
/// admission is a couple of float ops, no locking.
#[derive(Debug)]
pub struct RateLimiter {
    per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl RateLimiter {
    /// A limiter admitting `per_sec` requests per second with bursts up to
    /// `burst`. A `per_sec` of `0.0` (or less) disables limiting entirely.
    pub fn new(per_sec: f64, burst: u32) -> RateLimiter {
        RateLimiter {
            per_sec,
            burst: f64::from(burst.max(1)),
            tokens: f64::from(burst.max(1)),
            last: Instant::now(),
        }
    }

    /// Whether limiting is active at all.
    pub fn enabled(&self) -> bool {
        self.per_sec > 0.0
    }

    /// Admits or rejects one request now. Rejected requests spend nothing:
    /// a client that keeps hammering stays rejected until tokens refill.
    pub fn allow(&mut self) -> bool {
        if !self.enabled() {
            return true;
        }
        let now = Instant::now();
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.per_sec).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Outcome of one [`read_line_bounded`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum BoundedLine {
    /// A complete line was read (`buf` holds it, newline stripped); the
    /// payload carries the raw bytes consumed including the terminator.
    Line(usize),
    /// The line exceeded the budget: the rest of it was drained and
    /// discarded so the stream stays line-synchronized. The payload is the
    /// total bytes consumed.
    TooLong(usize),
    /// Clean end of stream before any byte of a new line.
    Eof,
}

/// Reads one `\n`-terminated line into `buf` (cleared first, terminator
/// stripped), refusing to buffer more than `max_bytes`. An over-long line
/// is consumed to its newline but *discarded*, so the caller can answer a
/// structured error and keep serving the connection — the alternative
/// (letting `read_line` buffer it) hands every client an unbounded memory
/// lever. Invalid UTF-8 is replaced lossily; the command decoder rejects
/// such lines with a structured error of its own.
pub fn read_line_bounded(
    reader: &mut impl BufRead,
    buf: &mut String,
    max_bytes: usize,
) -> io::Result<BoundedLine> {
    buf.clear();
    let mut raw: Vec<u8> = Vec::new();
    let mut consumed_total = 0usize;
    let mut over = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            // EOF. Whatever was accumulated is an unterminated final line.
            if consumed_total == 0 {
                return Ok(BoundedLine::Eof);
            }
            break;
        }
        let (chunk, found_newline) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (&available[..i], true),
            None => (available, false),
        };
        if !over {
            if raw.len() + chunk.len() > max_bytes {
                over = true;
                raw.clear();
            } else {
                raw.extend_from_slice(chunk);
            }
        }
        let consume = chunk.len() + usize::from(found_newline);
        consumed_total += consume;
        reader.consume(consume);
        if found_newline {
            break;
        }
    }
    if over {
        return Ok(BoundedLine::TooLong(consumed_total));
    }
    buf.push_str(&String::from_utf8_lossy(&raw));
    if let Some(stripped) = buf.strip_suffix('\r') {
        let len = stripped.len();
        buf.truncate(len);
    }
    Ok(BoundedLine::Line(consumed_total))
}

/// Compares two byte strings in time independent of where they differ, so
/// an `auth` probe cannot binary-search the token by timing. Length
/// differences are folded into the accumulator rather than early-exited.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    let n = a.len().max(b.len());
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn rate_limiter_admits_burst_then_rejects() {
        let mut limiter = RateLimiter::new(1.0, 3);
        assert!(limiter.allow());
        assert!(limiter.allow());
        assert!(limiter.allow());
        // Burst spent; at 1/sec nothing refills within this test's runtime.
        assert!(!limiter.allow());
        assert!(!limiter.allow());
    }

    #[test]
    fn rate_limiter_zero_is_unlimited() {
        let mut limiter = RateLimiter::new(0.0, 1);
        assert!(!limiter.enabled());
        for _ in 0..10_000 {
            assert!(limiter.allow());
        }
    }

    #[test]
    fn bounded_reader_reads_normal_lines() {
        let mut reader = BufReader::new(&b"stats\r\nsummary 3\nlast"[..]);
        let mut buf = String::new();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf, 64).unwrap(),
            BoundedLine::Line(7)
        );
        assert_eq!(buf, "stats");
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf, 64).unwrap(),
            BoundedLine::Line(10)
        );
        assert_eq!(buf, "summary 3");
        // Unterminated final line still comes through.
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf, 64).unwrap(),
            BoundedLine::Line(4)
        );
        assert_eq!(buf, "last");
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf, 64).unwrap(),
            BoundedLine::Eof
        );
    }

    #[test]
    fn bounded_reader_drains_overlong_lines_and_stays_synced() {
        let long = "x".repeat(100);
        let input = format!("{long}\nstats\n");
        // A tiny inner buffer forces the multi-chunk path.
        let mut reader = BufReader::with_capacity(8, input.as_bytes());
        let mut buf = String::new();
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf, 16).unwrap(),
            BoundedLine::TooLong(101)
        );
        // The next line is intact: the overflow was drained to its newline.
        assert_eq!(
            read_line_bounded(&mut reader, &mut buf, 16).unwrap(),
            BoundedLine::Line(6)
        );
        assert_eq!(buf, "stats");
    }

    #[test]
    fn constant_time_eq_basics() {
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"secret", b"secret"));
        assert!(!constant_time_eq(b"secret", b"secres"));
        assert!(!constant_time_eq(b"secret", b"secret1"));
        assert!(!constant_time_eq(b"", b"x"));
    }
}
