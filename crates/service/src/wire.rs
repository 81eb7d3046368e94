//! A line-oriented text protocol for `opc serve` / `opc submit`.
//!
//! One connection carries any number of requests, answered in order:
//!
//! ```text
//! OPCJOB 1
//! device almaden 2 7
//! mode optimized
//! shots 2048
//! seed 7
//! noisy 1
//! qasm
//! qreg q[2];
//! h q[0];
//! cx q[0], q[1];
//! .
//! ```
//!
//! The QASM body is terminated by a lone `.` (no statement in the
//! supported dialect starts with one). Responses are either
//!
//! ```text
//! OPCRESULT ok
//! key 1f2e3d4c5b6a7988
//! qubits 2
//! duration_dt 13536
//! pulses 9
//! fidelity 0.98 3fef5c28f5c28f5c
//! counts 995 6 20 1027
//! assembly
//! OPENQASM 2.0;
//! ...
//! .
//! end
//! ```
//!
//! (`fidelity` carries both a readable decimal and the exact `f64` bit
//! pattern in hex, so clients can round-trip the value bit-for-bit), or
//!
//! ```text
//! OPCRESULT error overloaded
//! message service overloaded (queue capacity 256)
//! end
//! ```
//!
//! The parser is as defensive as the service itself: malformed frames
//! come back as `io::ErrorKind::InvalidData`, never a panic. Reads are
//! bounded too: no line may exceed [`MAX_LINE_BYTES`] and no QASM or
//! assembly body [`MAX_FRAME_BYTES`], so a peer that never sends a
//! newline (or never ends a body) cannot grow the reader's memory.

use crate::service::{CompileService, JobOutput, ServiceError};
use crate::spec::{CircuitSource, DeviceKind, DeviceSpec, JobSpec};
use pulse_compiler::pipeline::PipelineConfig;
use pulse_compiler::CompileMode;
use std::io::{self, BufRead, Read, Write};

/// Longest line, newline included, either side of the protocol accepts.
/// The widest legitimate line is a response's `counts` line: at the
/// service's default 10-qubit ceiling that is at most 1024 twenty-digit
/// counts, about 21 KiB.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Largest QASM body (request) or assembly body (response), in bytes,
/// newlines included.
pub const MAX_FRAME_BYTES: usize = 1024 * 1024;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `read_line` that reads at most [`MAX_LINE_BYTES`]: a line that hits
/// the cap without a newline is `InvalidData`, not an unbounded buffer.
fn read_line<R: BufRead>(r: &mut R, buf: &mut String) -> io::Result<usize> {
    let n = r.take(MAX_LINE_BYTES as u64).read_line(buf)?;
    if n == MAX_LINE_BYTES && !buf.ends_with('\n') {
        return Err(bad(format!("line longer than {MAX_LINE_BYTES} bytes")));
    }
    Ok(n)
}

/// Appends one body line, refusing to grow the body past
/// [`MAX_FRAME_BYTES`].
fn push_body(body: &mut String, line: &str) -> io::Result<()> {
    if body.len() + line.len() > MAX_FRAME_BYTES {
        return Err(bad(format!("body longer than {MAX_FRAME_BYTES} bytes")));
    }
    body.push_str(line);
    Ok(())
}

/// Serializes a request frame.
pub fn write_request<W: Write>(w: &mut W, spec: &JobSpec) -> io::Result<()> {
    let qasm_text = match &spec.circuit {
        CircuitSource::Qasm(src) => src.clone(),
        CircuitSource::Ir(circuit) => quant_circuit::qasm::print(circuit),
    };
    writeln!(w, "OPCJOB 1")?;
    writeln!(
        w,
        "device {} {} {}",
        spec.device.kind.name(),
        spec.device.qubits,
        spec.device.seed
    )?;
    writeln!(
        w,
        "mode {}",
        match spec.mode {
            CompileMode::Standard => "standard",
            CompileMode::Optimized => "optimized",
        }
    )?;
    writeln!(w, "shots {}", spec.shots)?;
    writeln!(w, "seed {}", spec.seed)?;
    writeln!(w, "noisy {}", u8::from(spec.noisy))?;
    writeln!(w, "qasm")?;
    for line in qasm_text.lines() {
        writeln!(w, "{line}")?;
    }
    writeln!(w, ".")?;
    w.flush()
}

/// Reads one request frame; `Ok(None)` on a clean EOF before the header.
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<JobSpec>> {
    let mut header = String::new();
    loop {
        header.clear();
        if read_line(r, &mut header)? == 0 {
            return Ok(None);
        }
        if !header.trim().is_empty() {
            break;
        }
    }
    if header.trim() != "OPCJOB 1" {
        return Err(bad(format!("expected `OPCJOB 1`, got `{}`", header.trim())));
    }
    let mut device = None;
    // Omitted fields take the pipeline defaults, as `JobSpec::qasm` does.
    let defaults = PipelineConfig::default();
    let (mut mode, mut shots, mut seed, mut noisy) =
        (defaults.mode, defaults.shots, defaults.seed, defaults.noisy);
    let mut line = String::new();
    loop {
        line.clear();
        if read_line(r, &mut line)? == 0 {
            return Err(bad("unexpected EOF inside OPCJOB frame"));
        }
        let trimmed = line.trim();
        let mut fields = trimmed.split_whitespace();
        match fields.next() {
            Some("device") => {
                let kind = fields
                    .next()
                    .and_then(DeviceKind::parse)
                    .ok_or_else(|| bad("device line needs `armonk|almaden`"))?;
                let qubits = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("device line needs a qubit count"))?;
                let dev_seed = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("device line needs a seed"))?;
                device = Some(DeviceSpec::new(kind, qubits, dev_seed));
            }
            Some("mode") => {
                mode = match fields.next() {
                    Some("standard") => CompileMode::Standard,
                    Some("optimized") => CompileMode::Optimized,
                    other => return Err(bad(format!("unknown mode {other:?}"))),
                };
            }
            Some("shots") => {
                shots = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("shots needs an integer"))?;
            }
            Some("seed") => {
                seed = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("seed needs an integer"))?;
            }
            Some("noisy") => {
                noisy = match fields.next() {
                    Some("0") => false,
                    Some("1") => true,
                    other => return Err(bad(format!("noisy needs 0 or 1, got {other:?}"))),
                };
            }
            Some("qasm") => break,
            other => return Err(bad(format!("unknown OPCJOB field {other:?}"))),
        }
    }
    let mut qasm_text = String::new();
    loop {
        line.clear();
        if read_line(r, &mut line)? == 0 {
            return Err(bad("unexpected EOF inside qasm body"));
        }
        if line.trim_end() == "." {
            break;
        }
        push_body(&mut qasm_text, &line)?;
    }
    let device = device.ok_or_else(|| bad("OPCJOB frame missing a device line"))?;
    Ok(Some(JobSpec {
        device,
        circuit: CircuitSource::Qasm(qasm_text),
        mode,
        shots,
        seed,
        noisy,
    }))
}

fn error_kind(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::Overloaded { .. } => "overloaded",
        ServiceError::Parse(_) => "parse",
        ServiceError::InvalidRequest(_) => "invalid",
        ServiceError::Compile(_) => "compile",
        ServiceError::Verify(_) => "verify",
        ServiceError::Exec(_) => "exec",
        ServiceError::ShutDown => "shutdown",
        ServiceError::Spawn(_) => "spawn",
    }
}

/// Serializes a response frame.
pub fn write_response<W: Write>(
    w: &mut W,
    result: &Result<std::sync::Arc<JobOutput>, ServiceError>,
) -> io::Result<()> {
    match result {
        Ok(out) => {
            writeln!(w, "OPCRESULT ok")?;
            writeln!(w, "key {:016x}", out.key)?;
            writeln!(w, "qubits {}", out.num_qubits)?;
            writeln!(w, "duration_dt {}", out.duration_dt)?;
            writeln!(w, "pulses {}", out.pulse_count)?;
            writeln!(
                w,
                "fidelity {} {:016x}",
                out.fidelity,
                out.fidelity.to_bits()
            )?;
            write!(w, "counts")?;
            for c in &out.counts {
                write!(w, " {c}")?;
            }
            writeln!(w)?;
            writeln!(w, "assembly")?;
            for line in out.assembly_qasm.lines() {
                writeln!(w, "{line}")?;
            }
            writeln!(w, ".")?;
        }
        Err(e) => {
            writeln!(w, "OPCRESULT error {}", error_kind(e))?;
            writeln!(w, "message {e}")?;
        }
    }
    writeln!(w, "end")?;
    w.flush()
}

/// A client-side view of a response: either the job output (with the
/// server-computed key/fidelity bits restored exactly) or the error kind
/// + rendered message.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    /// Success frame.
    Ok(JobOutput),
    /// Error frame: `(kind, message)` as sent by the server.
    Error(String, String),
}

/// Reads one response frame.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<WireResponse> {
    let mut header = String::new();
    loop {
        header.clear();
        if read_line(r, &mut header)? == 0 {
            return Err(bad("unexpected EOF before OPCRESULT"));
        }
        if !header.trim().is_empty() {
            break;
        }
    }
    let header = header.trim().to_string();
    let mut line = String::new();
    if let Some(kind) = header.strip_prefix("OPCRESULT error") {
        let kind = kind.trim().to_string();
        let mut message = String::new();
        loop {
            line.clear();
            if read_line(r, &mut line)? == 0 {
                return Err(bad("unexpected EOF inside error frame"));
            }
            let trimmed = line.trim_end();
            if trimmed == "end" {
                return Ok(WireResponse::Error(kind, message));
            }
            if let Some(msg) = trimmed.strip_prefix("message ") {
                message = msg.to_string();
            }
        }
    }
    if header != "OPCRESULT ok" {
        return Err(bad(format!("expected OPCRESULT, got `{header}`")));
    }
    let mut out = JobOutput {
        key: 0,
        num_qubits: 0,
        assembly_qasm: String::new(),
        duration_dt: 0,
        pulse_count: 0,
        counts: Vec::new(),
        fidelity: 0.0,
        completed_tick: 0,
    };
    loop {
        line.clear();
        if read_line(r, &mut line)? == 0 {
            return Err(bad("unexpected EOF inside ok frame"));
        }
        let trimmed = line.trim_end();
        if trimmed == "end" {
            return Ok(WireResponse::Ok(out));
        }
        let mut fields = trimmed.split_whitespace();
        match fields.next() {
            Some("key") => {
                out.key = fields
                    .next()
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .ok_or_else(|| bad("key needs a hex word"))?;
            }
            Some("qubits") => {
                out.num_qubits = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("qubits needs an integer"))?;
            }
            Some("duration_dt") => {
                out.duration_dt = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("duration_dt needs an integer"))?;
            }
            Some("pulses") => {
                out.pulse_count = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("pulses needs an integer"))?;
            }
            Some("fidelity") => {
                // Second field is the exact bit pattern; the decimal is
                // for human eyes only.
                let bits = fields
                    .nth(1)
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .ok_or_else(|| bad("fidelity needs decimal + bits-hex"))?;
                out.fidelity = f64::from_bits(bits);
            }
            Some("counts") => {
                out.counts = fields
                    .map(|v| v.parse::<u64>().map_err(|_| bad("counts need integers")))
                    .collect::<io::Result<_>>()?;
            }
            Some("assembly") => loop {
                line.clear();
                if read_line(r, &mut line)? == 0 {
                    return Err(bad("unexpected EOF inside assembly body"));
                }
                if line.trim_end() == "." {
                    break;
                }
                push_body(&mut out.assembly_qasm, &line)?;
            },
            other => return Err(bad(format!("unknown OPCRESULT field {other:?}"))),
        }
    }
}

/// Server side of one connection: read requests, submit, wait, answer —
/// until EOF. Errors become error frames, not panics; only transport
/// failures (broken pipe) propagate. Reader and writer are separate so a
/// `TcpStream` can be split with `try_clone` and the read side buffered.
pub fn serve_connection<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    service: &CompileService,
) -> io::Result<()> {
    loop {
        let Some(spec) = read_request(reader)? else {
            return Ok(());
        };
        let result = match service.submit(spec) {
            Ok(ticket) => ticket.wait(),
            Err(e) => Err(e),
        };
        write_response(writer, &result)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn spec() -> JobSpec {
        JobSpec {
            device: DeviceSpec::new(DeviceKind::Almaden, 2, 7),
            circuit: CircuitSource::Qasm("qreg q[2];\nh q[0];\ncx q[0], q[1];\n".into()),
            mode: CompileMode::Standard,
            shots: 123,
            seed: 99,
            noisy: false,
        }
    }

    #[test]
    fn request_round_trips() {
        let mut buf = Vec::new();
        write_request(&mut buf, &spec()).unwrap();
        let mut r = BufReader::new(&buf[..]);
        let parsed = read_request(&mut r).unwrap().unwrap();
        assert_eq!(parsed, spec());
        // EOF after the single frame.
        assert_eq!(read_request(&mut r).unwrap(), None);
    }

    #[test]
    fn omitted_fields_take_the_job_defaults() {
        let frame = "OPCJOB 1\ndevice almaden 2 7\nqasm\nqreg q[2];\n.\n";
        let parsed = read_request(&mut BufReader::new(frame.as_bytes()))
            .unwrap()
            .unwrap();
        let device = DeviceSpec::new(DeviceKind::Almaden, 2, 7);
        assert_eq!(parsed, JobSpec::qasm(device, "qreg q[2];\n"));
    }

    #[test]
    fn ok_response_round_trips_bit_exactly() {
        let out = JobOutput {
            key: 0xdead_beef_1234_5678,
            num_qubits: 2,
            assembly_qasm: "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n".into(),
            duration_dt: 4242,
            pulse_count: 9,
            counts: vec![10, 0, 3, 87],
            fidelity: 0.987654321012345,
            completed_tick: 0,
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &Ok(std::sync::Arc::new(out.clone()))).unwrap();
        let mut r = BufReader::new(&buf[..]);
        match read_response(&mut r).unwrap() {
            WireResponse::Ok(parsed) => {
                assert_eq!(parsed, out);
                assert_eq!(parsed.fidelity.to_bits(), out.fidelity.to_bits());
            }
            WireResponse::Error(..) => panic!("expected ok frame"),
        }
    }

    #[test]
    fn error_response_round_trips() {
        let mut buf = Vec::new();
        write_response(&mut buf, &Err(ServiceError::Overloaded { capacity: 8 })).unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_response(&mut r).unwrap(),
            WireResponse::Error(
                "overloaded".into(),
                "service overloaded (queue capacity 8)".into()
            )
        );
    }

    #[test]
    fn malformed_frames_are_io_errors_not_panics() {
        for garbage in [
            "HELLO\n",
            "OPCJOB 1\nqasm\n", // EOF before `.`
            "OPCJOB 1\ndevice martian 1 1\nqasm\n.\n",
            "OPCJOB 1\nqasm\n.\n", // no device line
        ] {
            let mut r = BufReader::new(garbage.as_bytes());
            assert!(read_request(&mut r).is_err(), "accepted: {garbage:?}");
        }
        let mut r = BufReader::new("OPCRESULT ok\nbogus field\nend\n".as_bytes());
        assert!(read_response(&mut r).is_err());
    }

    fn assert_invalid_data<T: std::fmt::Debug>(result: io::Result<T>, what: &str) {
        match result {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
            Ok(v) => panic!("{what}: accepted {v:?}"),
        }
    }

    #[test]
    fn line_without_newline_is_capped() {
        // A peer that never sends `\n`: an endless stream must be refused
        // after MAX_LINE_BYTES, in the header and inside a frame alike.
        let mut r = BufReader::new(io::repeat(b'A'));
        assert_invalid_data(read_request(&mut r), "endless header");
        let head = "OPCJOB 1\ndevice almaden 2 7\nqasm\n".as_bytes();
        let mut r = BufReader::new(head.chain(io::repeat(b'h')));
        assert_invalid_data(read_request(&mut r), "endless qasm line");
        let head = "OPCRESULT ok\ncounts 1".as_bytes();
        let mut r = BufReader::new(head.chain(io::repeat(b'0')));
        assert_invalid_data(read_response(&mut r), "endless counts line");
    }

    #[test]
    fn body_over_the_frame_cap_is_refused() {
        // Short lines that never end the body: refused once the body
        // would pass MAX_FRAME_BYTES.
        let head = "OPCJOB 1\ndevice almaden 2 7\nqasm\n".as_bytes();
        let mut r = BufReader::new(head.chain(io::repeat(b'\n')));
        assert_invalid_data(read_request(&mut r), "endless qasm body");
        let head = "OPCRESULT ok\nassembly\n".as_bytes();
        let mut r = BufReader::new(head.chain(io::repeat(b'\n')));
        assert_invalid_data(read_response(&mut r), "endless assembly body");
    }

    #[test]
    fn frame_at_exactly_the_caps_still_parses() {
        // Every body line is exactly MAX_LINE_BYTES (newline included) and
        // the body is exactly MAX_FRAME_BYTES: both caps are inclusive.
        let line = format!("{}\n", "x".repeat(MAX_LINE_BYTES - 1));
        let body = line.repeat(MAX_FRAME_BYTES / MAX_LINE_BYTES);
        assert_eq!(body.len(), MAX_FRAME_BYTES);
        let mut big = spec();
        big.circuit = CircuitSource::Qasm(body.clone());
        let mut buf = Vec::new();
        write_request(&mut buf, &big).unwrap();
        let parsed = read_request(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(parsed, Some(big));
        // One byte more and the same frame is refused.
        let mut bigger = spec();
        bigger.circuit = CircuitSource::Qasm(format!("{body}\n"));
        let mut buf = Vec::new();
        write_request(&mut buf, &bigger).unwrap();
        assert_invalid_data(read_request(&mut BufReader::new(&buf[..])), "cap + 1");
    }
}
