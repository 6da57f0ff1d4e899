//! The service process, the client connections, and the scanning of
//! response frames without parsing them.
//!
//! The service runs in a child process (this binary with `--serve`), so
//! its CPU time and peak memory are its own. It listens on an abstract
//! Unix socket, which needs no file in the checkout.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::process::{Child, Command, Stdio};

use anvil_core::Session;
use anvild::CompileService;

/// Child-process entry: one `CompileService` with the AES S-box extern
/// registered, serving `conns` connections and exiting once all close.
pub fn serve(name: &str, conns: usize) -> Result<(), String> {
    let mut session = Session::new();
    session.add_extern(anvil_designs::aes::sbox_module());
    let service = CompileService::with_session(session);
    let addr = SocketAddr::from_abstract_name(name.as_bytes()).map_err(|e| e.to_string())?;
    let listener = UnixListener::bind_addr(&addr).map_err(|e| format!("bind: {e}"))?;
    println!("ready");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        for _ in 0..conns {
            let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
            let service = &service;
            scope.spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(s) => BufReader::new(s),
                    Err(_) => return,
                };
                let _ = service.serve(reader, &stream);
            });
        }
        Ok(())
    })
}

/// A running service process; killed and reaped on drop if still alive.
pub struct Service {
    child: Child,
    name: String,
}

impl Service {
    pub fn start(tag: &str) -> Result<Service, String> {
        let name = format!("anvil-perfbench-{}-{tag}", std::process::id());
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["--serve", &name])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the service: {e}"))?;
        let mut ready = String::new();
        if let Some(out) = child.stdout.as_mut() {
            let mut byte = [0u8; 1];
            while out.read(&mut byte).map_err(|e| e.to_string())? == 1 && byte[0] != b'\n' {
                ready.push(byte[0] as char);
            }
        }
        let service = Service { child, name };
        if ready != "ready" {
            return Err("the service did not start".to_string());
        }
        Ok(service)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Connection `index` numbers its requests from `index * 10^9 + 1`:
    /// the service keys in-flight requests (and their stop flags) by id
    /// alone, so two connections must never reuse each other's ids.
    pub fn connect(&self, index: usize) -> Result<Conn, String> {
        let addr =
            SocketAddr::from_abstract_name(self.name.as_bytes()).map_err(|e| e.to_string())?;
        let stream = UnixStream::connect_addr(&addr).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            next_id: index as i64 * 1_000_000_000 + 1,
        })
    }

    /// Waits for the service to exit after every connection closed.
    pub fn finish(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the service exited with {status}"))
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection. Requests carry increasing numeric ids.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: i64,
}

/// The frames of one user action, ready to write.
pub struct Frames {
    pub bytes: Vec<u8>,
    pub ids: Vec<i64>,
}

/// One request: a method and its `params` members as JSON text without
/// the enclosing braces.
#[derive(Clone)]
pub struct Req {
    pub method: &'static str,
    pub params: String,
}

impl Req {
    pub fn new(method: &'static str, params: String) -> Req {
        Req { method, params }
    }
}

impl Conn {
    /// Serializes requests into newline-terminated frames with fresh ids.
    pub fn frames(&mut self, reqs: &[Req], traced: bool) -> Frames {
        let mut bytes = Vec::new();
        let mut ids = Vec::new();
        for r in reqs {
            let id = self.next_id;
            self.next_id += 1;
            let sep = if r.params.is_empty() { "" } else { "," };
            let trace = if traced {
                format!("{sep}\"trace\":true")
            } else {
                String::new()
            };
            let _ = writeln!(
                bytes,
                "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"{}\",\"params\":{{{}{trace}}}}}",
                r.method, r.params
            );
            ids.push(id);
        }
        Frames { bytes, ids }
    }

    /// Writes the frames and reads until every request has its response.
    /// Returns the response lines in request order and the bytes read,
    /// notifications included.
    pub fn exchange(&mut self, frames: &Frames) -> Result<(Vec<String>, usize), String> {
        self.writer
            .write_all(&frames.bytes)
            .map_err(|e| format!("write: {e}"))?;
        let mut out: Vec<Option<String>> = vec![None; frames.ids.len()];
        let mut pending = frames.ids.len();
        let mut read = 0;
        while pending > 0 {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("the service closed the connection".to_string());
            }
            read += n;
            let Some(id) = response_id(&line) else {
                continue; // a notification
            };
            match frames.ids.iter().position(|&i| i == id) {
                Some(k) if out[k].is_none() => {
                    out[k] = Some(line);
                    pending -= 1;
                }
                _ => return Err(format!("unexpected response id {id}")),
            }
        }
        Ok((out.into_iter().flatten().collect(), read))
    }

    /// One request/response round trip.
    pub fn call(&mut self, req: Req) -> Result<String, String> {
        let frames = self.frames(&[req], false);
        let (mut lines, _) = self.exchange(&frames)?;
        Ok(lines.remove(0))
    }
}

/// The id of a response frame, or `None` for a notification. Object keys
/// are serialized in sorted order, so a success starts with `{"id":` and
/// an error ends with `"id":N,"jsonrpc":"2.0"}`.
pub fn response_id(line: &str) -> Option<i64> {
    let at = if line.starts_with("{\"id\":") {
        6
    } else if line.starts_with("{\"error\":") {
        line.rfind("\"id\":")? + 5
    } else {
        return None;
    };
    let digits: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Whether a response frame is a success (`result`) rather than an error.
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{\"id\":")
}

/// The raw (still escaped) JSON string value of `key`'s first occurrence.
pub fn raw_string<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let bytes = line.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&line[start..i]),
            _ => i += 1,
        }
    }
    None
}

/// The integer value of `key`'s first occurrence.
pub fn raw_int(line: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let text: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    text.parse().ok()
}

/// The JSON object value of `key`'s first occurrence, as text.
pub fn raw_object<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":{{");
    let start = line.find(&pat)? + pat.len() - 1;
    let bytes = line.as_bytes();
    let (mut depth, mut in_str, mut i) = (0usize, false, start);
    while i < bytes.len() {
        match (in_str, bytes[i]) {
            (true, b'\\') => i += 1,
            (true, b'"') => in_str = false,
            (false, b'"') => in_str = true,
            (false, b'{') => depth += 1,
            (false, b'}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(&line[start..=i]);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// `s` as a JSON string literal, escaped as the service escapes it.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    anvil_syntax::json_escape_into(&mut out, s);
    out
}
