//! The compile server's wire protocol.
//!
//! One JSON document per line in each direction (newline-delimited
//! JSON): a client writes a [`Request`] line, the server answers with
//! exactly one [`Response`] line, in order, per connection. Documents
//! are encoded compactly ([`Json::compact`]), which guarantees no
//! literal newline bytes inside a frame.
//!
//! Requests carry the canonical DSL source plus compile options;
//! responses carry the design fingerprint, the structural summary, the
//! per-pass compile timings and the cache [`Disposition`] — or a
//! structured error ([`ErrorKind`]) instead of a torn connection when
//! anything goes wrong. Unknown request fields are ignored, so older
//! servers tolerate newer clients.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use shmls_ir::json::Json;
use stencil_hmls::persist::{DesignRecord, DesignSummary};
use stencil_hmls::{CompileOptions, Disposition, TargetPath};

/// Which layer a failed request failed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not a valid protocol frame (bad JSON,
    /// missing `source`, unknown `paths` value, …).
    Protocol,
    /// The kernel failed to parse or compile.
    Compile,
    /// The server hit an internal fault (a panic) serving the request.
    Internal,
}

impl ErrorKind {
    /// The wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Compile => "compile",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parse the wire spelling.
    pub fn from_label(s: &str) -> Option<ErrorKind> {
        match s {
            "protocol" => Some(ErrorKind::Protocol),
            "compile" => Some(ErrorKind::Compile),
            "internal" => Some(ErrorKind::Internal),
            _ => None,
        }
    }
}

/// Compile-option overrides carried by a request. Every field is
/// optional; an absent field keeps the server-side default
/// ([`CompileOptions::default`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RequestOptions {
    /// FIFO depth for element/result streams.
    pub stream_depth: Option<i64>,
    /// FIFO depth for window streams.
    pub window_stream_depth: Option<i64>,
    /// Target initiation interval for compute loops.
    pub ii: Option<i64>,
    /// Unroll factor for compute loops.
    pub unroll: Option<i64>,
    /// Lowering paths: `"hls"`, `"hls+cpu"` or `"full"`.
    pub paths: Option<String>,
    /// Run canonicalisation before lowering.
    pub optimize: Option<bool>,
    /// Verify the module between stages.
    pub verify: Option<bool>,
}

/// One compile request: a client-chosen id (echoed back verbatim), the
/// canonical DSL source, and option overrides.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen request id, echoed in the response so clients may
    /// correlate. Optional; omitted ids echo as `null`.
    pub id: Option<u64>,
    /// Canonical DSL kernel source.
    pub source: String,
    /// Compile-option overrides.
    pub options: RequestOptions,
}

impl Request {
    /// Encode as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut pairs = vec![
            ("id".to_string(), opt_num(self.id)),
            ("source".to_string(), Json::Str(self.source.clone())),
        ];
        let o = &self.options;
        let mut opts = Vec::new();
        let mut push_i64 = |name: &str, v: Option<i64>| {
            if let Some(v) = v {
                opts.push((name.to_string(), Json::Num(v as f64)));
            }
        };
        push_i64("stream_depth", o.stream_depth);
        push_i64("window_stream_depth", o.window_stream_depth);
        push_i64("ii", o.ii);
        push_i64("unroll", o.unroll);
        if let Some(paths) = &o.paths {
            opts.push(("paths".to_string(), Json::Str(paths.clone())));
        }
        if let Some(b) = o.optimize {
            opts.push(("optimize".to_string(), Json::Bool(b)));
        }
        if let Some(b) = o.verify {
            opts.push(("verify".to_string(), Json::Bool(b)));
        }
        if !opts.is_empty() {
            pairs.push(("options".to_string(), Json::Obj(opts)));
        }
        Json::Obj(pairs).compact()
    }

    /// Parse one request line. The error string is a protocol-layer
    /// diagnostic suitable for an [`ErrorKind::Protocol`] response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        Request::from_json(&doc)
    }

    /// Read a request out of an already parsed frame — for a caller that
    /// reads the document for more than the request (the router).
    pub fn from_json(doc: &Json) -> Result<Request, String> {
        if doc.as_obj().is_none() {
            return Err("request must be a JSON object".to_string());
        }
        let id = match doc.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("`id` must be an unsigned integer")?),
        };
        let source = doc
            .get("source")
            .and_then(Json::as_str)
            .ok_or("missing string field `source`")?
            .to_string();
        let mut options = RequestOptions::default();
        if let Some(opts) = doc.get("options") {
            let pairs = opts.as_obj().ok_or("`options` must be an object")?;
            for (key, value) in pairs {
                match key.as_str() {
                    "stream_depth" => options.stream_depth = Some(req_i64(key, value)?),
                    "window_stream_depth" => {
                        options.window_stream_depth = Some(req_i64(key, value)?)
                    }
                    "ii" => options.ii = Some(req_i64(key, value)?),
                    "unroll" => options.unroll = Some(req_i64(key, value)?),
                    "paths" => {
                        let s = value.as_str().ok_or("`paths` must be a string")?;
                        parse_paths(s)?;
                        options.paths = Some(s.to_string());
                    }
                    "optimize" => options.optimize = Some(req_bool(key, value)?),
                    "verify" => options.verify = Some(req_bool(key, value)?),
                    // Ignore unknown options: an older server must not
                    // reject a newer client's request wholesale.
                    _ => {}
                }
            }
        }
        Ok(Request {
            id,
            source,
            options,
        })
    }

    /// Resolve the overrides against the server defaults.
    pub fn compile_options(&self) -> Result<CompileOptions, String> {
        self.options.compile_options()
    }
}

impl RequestOptions {
    /// Resolve the overrides against the server defaults.
    pub fn compile_options(&self) -> Result<CompileOptions, String> {
        let mut co = CompileOptions::default();
        if let Some(v) = self.stream_depth {
            co.hmls.stream_depth = v;
        }
        if let Some(v) = self.window_stream_depth {
            co.hmls.window_stream_depth = v;
        }
        if let Some(v) = self.ii {
            co.hmls.ii = v;
        }
        if let Some(v) = self.unroll {
            co.hmls.unroll = v;
        }
        if let Some(paths) = &self.paths {
            co.paths = parse_paths(paths)?;
        }
        if let Some(b) = self.optimize {
            co.optimize = b;
        }
        if let Some(b) = self.verify {
            co.verify = b;
        }
        Ok(co)
    }
}

fn parse_paths(s: &str) -> Result<TargetPath, String> {
    match s {
        "hls" => Ok(TargetPath::HlsOnly),
        "hls+cpu" => Ok(TargetPath::HlsAndCpu),
        "full" => Ok(TargetPath::Full),
        other => Err(format!(
            "unknown `paths` value `{other}` (expected hls, hls+cpu or full)"
        )),
    }
}

fn req_i64(key: &str, value: &Json) -> Result<i64, String> {
    match value.as_f64() {
        Some(n) if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 => Ok(n as i64),
        _ => Err(format!("`{key}` must be an integer")),
    }
}

fn req_bool(key: &str, value: &Json) -> Result<bool, String> {
    match value {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}` must be a boolean")),
    }
}

fn opt_num(v: Option<u64>) -> Json {
    match v {
        Some(v) => Json::Num(v as f64),
        None => Json::Null,
    }
}

/// One compile response. Success carries the design record fields and
/// the cache disposition; failure carries a structured error. Both
/// carry the request id and the server-side wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id, echoed.
    pub id: Option<u64>,
    /// The shard that served this response. Backends leave it absent;
    /// the front-tier router stamps it while relaying so clients (and
    /// the fault-injection tests) can see which backend answered.
    pub shard: Option<u64>,
    /// Whether the compile succeeded.
    pub ok: bool,
    /// Cache disposition (`hit`, `disk-hit`, `miss`, `coalesced`) on
    /// success.
    pub disposition: Option<String>,
    /// Content-addressed cache key, 16 hex digits, on success.
    pub key: Option<String>,
    /// Design fingerprint, 16 hex digits, on success.
    pub fingerprint: Option<String>,
    /// Structural design summary on success.
    pub design: Option<DesignSummary>,
    /// Per-pass compile timings (microseconds) of the compilation that
    /// produced the design — a warm hit reports the original cost.
    pub timings_us: Vec<(String, u64)>,
    /// Server-side wall time spent on this request, microseconds.
    pub wall_us: u64,
    /// The error, when `ok` is false.
    pub error: Option<(ErrorKind, String)>,
}

impl Response {
    /// A success response for a served design record.
    pub fn success(
        id: Option<u64>,
        record: &DesignRecord,
        disposition: Disposition,
        wall_us: u64,
    ) -> Response {
        Response {
            id,
            shard: None,
            ok: true,
            disposition: Some(disposition.as_str().to_string()),
            key: Some(format!("{:016x}", record.key)),
            fingerprint: Some(format!("{:016x}", record.fingerprint)),
            design: Some(record.summary),
            timings_us: record.timings_us.clone(),
            wall_us,
            error: None,
        }
    }

    /// A failure response.
    pub fn failure(id: Option<u64>, kind: ErrorKind, message: String, wall_us: u64) -> Response {
        Response {
            id,
            shard: None,
            ok: false,
            disposition: None,
            key: None,
            fingerprint: None,
            design: None,
            timings_us: Vec::new(),
            wall_us,
            error: Some((kind, message)),
        }
    }

    /// How the request was served: `None` for a failure, and for a
    /// success whose disposition is missing or not one this build knows —
    /// every ledger counts those as errors.
    pub fn served(&self) -> Option<Disposition> {
        let label = self.disposition.as_deref().filter(|_| self.ok)?;
        Disposition::from_label(label)
    }

    /// Encode as one compact JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut pairs = vec![
            ("id".to_string(), opt_num(self.id)),
            ("ok".to_string(), Json::Bool(self.ok)),
        ];
        if let Some(s) = self.shard {
            pairs.push(("shard".to_string(), Json::Num(s as f64)));
        }
        if let Some(d) = &self.disposition {
            pairs.push(("disposition".to_string(), Json::Str(d.clone())));
        }
        if let Some(k) = &self.key {
            pairs.push(("key".to_string(), Json::Str(k.clone())));
        }
        if let Some(f) = &self.fingerprint {
            pairs.push(("fingerprint".to_string(), Json::Str(f.clone())));
        }
        if let Some(s) = &self.design {
            pairs.push((
                "design".to_string(),
                Json::Obj(vec![
                    ("inputs".to_string(), Json::Num(s.inputs as f64)),
                    ("outputs".to_string(), Json::Num(s.outputs as f64)),
                    (
                        "compute_stages".to_string(),
                        Json::Num(s.compute_stages as f64),
                    ),
                    ("dup_stages".to_string(), Json::Num(s.dup_stages as f64)),
                    ("streams".to_string(), Json::Num(s.streams as f64)),
                    (
                        "shift_buffers".to_string(),
                        Json::Num(s.shift_buffers as f64),
                    ),
                ]),
            ));
        }
        if !self.timings_us.is_empty() {
            pairs.push((
                "timings_us".to_string(),
                Json::Arr(
                    self.timings_us
                        .iter()
                        .map(|(name, us)| {
                            Json::Arr(vec![Json::Str(name.clone()), Json::Num(*us as f64)])
                        })
                        .collect(),
                ),
            ));
        }
        pairs.push(("wall_us".to_string(), Json::Num(self.wall_us as f64)));
        if let Some((kind, message)) = &self.error {
            pairs.push((
                "error".to_string(),
                Json::Obj(vec![
                    ("kind".to_string(), Json::Str(kind.as_str().to_string())),
                    ("message".to_string(), Json::Str(message.clone())),
                ]),
            ));
        }
        Json::Obj(pairs).compact()
    }

    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        if doc.as_obj().is_none() {
            return Err("response must be a JSON object".to_string());
        }
        let id = match doc.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("`id` must be an unsigned integer")?),
        };
        let ok = match doc.get("ok") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing boolean field `ok`".to_string()),
        };
        let get_str = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
        let design = match doc.get("design") {
            None => None,
            Some(d) => {
                let field = |name: &str| -> Result<usize, String> {
                    d.get(name)
                        .and_then(Json::as_u64)
                        .map(|v| v as usize)
                        .ok_or_else(|| format!("design field `{name}` missing or not a count"))
                };
                Some(DesignSummary {
                    inputs: field("inputs")?,
                    outputs: field("outputs")?,
                    compute_stages: field("compute_stages")?,
                    dup_stages: field("dup_stages")?,
                    streams: field("streams")?,
                    shift_buffers: field("shift_buffers")?,
                })
            }
        };
        let mut timings_us = Vec::new();
        if let Some(ts) = doc.get("timings_us") {
            for t in ts.as_arr().ok_or("`timings_us` must be an array")? {
                let pair = t.as_arr().filter(|p| p.len() == 2);
                let (name, us) = match pair {
                    Some([name, us]) => (name.as_str(), us.as_u64()),
                    _ => (None, None),
                };
                match (name, us) {
                    (Some(name), Some(us)) => timings_us.push((name.to_string(), us)),
                    _ => return Err("`timings_us` entries must be [name, micros]".to_string()),
                }
            }
        }
        let wall_us = doc
            .get("wall_us")
            .and_then(Json::as_u64)
            .ok_or("missing numeric field `wall_us`")?;
        let error = match doc.get("error") {
            None => None,
            Some(e) => {
                let kind = e
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(ErrorKind::from_label)
                    .ok_or("error `kind` missing or unknown")?;
                let message = e
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("error `message` missing")?
                    .to_string();
                Some((kind, message))
            }
        };
        if !ok && error.is_none() {
            return Err("failure response missing `error`".to_string());
        }
        Ok(Response {
            id,
            shard: doc.get("shard").and_then(Json::as_u64),
            ok,
            disposition: get_str("disposition"),
            key: get_str("key"),
            fingerprint: get_str("fingerprint"),
            design,
            timings_us,
            wall_us,
            error,
        })
    }
}

/// One client connection of the line protocol, kept for as many
/// exchanges as the peer stays up: the load generator's clients, its
/// stats fetch and the router's backend connections.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect with Nagle off — small frames, one exchange at a time:
    /// every request would pay a delayed-ACK round trip otherwise.
    /// `read_timeout` bounds each wait for a reply.
    pub fn connect(addr: impl ToSocketAddrs, read_timeout: Option<Duration>) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(read_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Send `frame` as one line and read the one line that answers it
    /// (terminator stripped). A peer that closed the connection instead
    /// is an error like any other transport failure.
    pub fn roundtrip(&mut self, frame: &str) -> io::Result<String> {
        self.writer.write_all(format!("{frame}\n").as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            let closed = "peer closed the connection";
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, closed));
        }
        reply.truncate(reply.trim_end_matches(['\r', '\n']).len());
        Ok(reply)
    }
}

/// Echo the client's id even on frames that fail full request parsing
/// (or that an error is synthesized for), so a pipelined client can still
/// correlate the error.
pub(crate) fn best_effort_id(line: &str) -> Option<u64> {
    Json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_effort_id_survives_partial_frames() {
        assert_eq!(best_effort_id(r#"{"id": 9}"#), Some(9));
        assert_eq!(best_effort_id("not json"), None);
        assert_eq!(best_effort_id(r#"{"id": "x"}"#), None);
    }

    fn sample_request() -> Request {
        Request {
            id: Some(7),
            source: "kernel k { grid(8, 8) halo 1 field a : input field b : output \
                     compute b { b = a[-1,0] + a[1,0] } }"
                .to_string(),
            options: RequestOptions {
                stream_depth: Some(16),
                unroll: Some(2),
                paths: Some("hls".to_string()),
                verify: Some(false),
                ..Default::default()
            },
        }
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        let line = req.encode();
        assert!(!line.contains('\n'));
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn request_options_resolve_against_defaults() {
        let co = sample_request().compile_options().unwrap();
        assert_eq!(co.hmls.stream_depth, 16);
        assert_eq!(co.hmls.unroll, 2);
        assert_eq!(co.paths, TargetPath::HlsOnly);
        assert!(!co.verify);
        // Untouched fields keep their defaults.
        let defaults = CompileOptions::default();
        assert_eq!(co.hmls.ii, defaults.hmls.ii);
        assert_eq!(co.optimize, defaults.optimize);
    }

    #[test]
    fn request_parse_rejects_malformed_frames() {
        for (line, fragment) in [
            ("not json", "JSON error"),
            ("[1, 2]", "must be a JSON object"),
            (r#"{"id": 1}"#, "source"),
            (r#"{"source": "k", "id": -4}"#, "`id`"),
            (r#"{"source": "k", "options": {"paths": "gpu"}}"#, "paths"),
            (r#"{"source": "k", "options": {"ii": 1.5}}"#, "`ii`"),
            (r#"{"source": "k", "options": {"verify": 1}}"#, "`verify`"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(fragment), "`{line}` → `{err}`");
        }
    }

    #[test]
    fn request_ignores_unknown_option_fields() {
        let req = Request::parse(r#"{"source": "k", "options": {"future_knob": 3}}"#).unwrap();
        assert_eq!(req.options, RequestOptions::default());
    }

    #[test]
    fn success_response_round_trips() {
        let record = DesignRecord {
            key: 0xfeed,
            fingerprint: 0xbeef,
            source_digest: 1,
            summary: DesignSummary {
                inputs: 1,
                outputs: 1,
                compute_stages: 1,
                dup_stages: 0,
                streams: 4,
                shift_buffers: 1,
            },
            timings_us: vec![("parse".to_string(), 12), ("total".to_string(), 340)],
        };
        let resp = Response::success(Some(7), &record, Disposition::DiskHit, 55);
        let line = resp.encode();
        assert!(!line.contains('\n'));
        let back = Response::parse(&line).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.disposition.as_deref(), Some("disk-hit"));
        assert_eq!(back.key.as_deref(), Some("000000000000feed"));
        assert_eq!(back.timings_us.len(), 2);
    }

    #[test]
    fn only_an_ok_response_with_a_known_label_was_served() {
        let line = |ok: bool, label: &str| {
            format!(
                r#"{{"id": 1, "ok": {ok}, {label}"wall_us": 1, "error": {{"kind": "compile", "message": "m"}}}}"#
            )
        };
        let served = |ok, label| Response::parse(&line(ok, label)).unwrap().served();
        assert_eq!(
            served(true, r#""disposition": "disk-hit", "#),
            Some(Disposition::DiskHit)
        );
        // A failure, a success without a label, a label this build does
        // not know: the ledger books each as an error.
        assert_eq!(served(false, r#""disposition": "hit", "#), None);
        assert_eq!(served(true, ""), None);
        assert_eq!(served(true, r#""disposition": "evicted", "#), None);
        let mut counts = stencil_hmls::cache::DispositionCounts::default();
        counts.record(served(true, r#""disposition": "evicted", "#));
        assert_eq!((counts.requests, counts.errors), (1, 1));
    }

    #[test]
    fn client_keeps_one_connection_for_many_exchanges() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            for _ in 0..2 {
                line.clear();
                reader.read_line(&mut line).unwrap();
                writer.write_all(format!("re: {line}").as_bytes()).unwrap();
            }
            // Dropping the stream closes the connection under the client.
        });
        let mut client = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(client.roundtrip("one").unwrap(), "re: one");
        assert_eq!(client.roundtrip("two").unwrap(), "re: two");
        echo.join().unwrap();
        let closed = client.roundtrip("three").unwrap_err();
        assert_eq!(closed.kind(), io::ErrorKind::UnexpectedEof, "{closed}");
    }

    #[test]
    fn shard_stamp_round_trips_and_defaults_absent() {
        let resp = Response::failure(Some(2), ErrorKind::Protocol, "bad frame".to_string(), 3);
        assert_eq!(resp.shard, None);
        assert!(!resp.encode().contains("shard"), "absent shard is omitted");
        let stamped = Response {
            shard: Some(4),
            ..resp.clone()
        };
        let back = Response::parse(&stamped.encode()).unwrap();
        assert_eq!(back.shard, Some(4));
        assert_eq!(back, stamped);
    }

    #[test]
    fn failure_response_round_trips() {
        let resp = Response::failure(
            None,
            ErrorKind::Compile,
            "unknown field `q`".to_string(),
            17,
        );
        let back = Response::parse(&resp.encode()).unwrap();
        assert_eq!(back, resp);
        assert!(!back.ok);
        assert_eq!(back.error.as_ref().unwrap().0, ErrorKind::Compile);
    }

    #[test]
    fn failure_without_error_object_is_rejected() {
        assert!(
            Response::parse(r#"{"id": null, "ok": false, "wall_us": 1}"#)
                .unwrap_err()
                .contains("error")
        );
    }
}
