//! A raw line client: the benchmark keeps every response line as the
//! server wrote it, so a `results` answer can be compared byte for byte,
//! and decodes it itself so decode time is part of the round trip.

use flowistry_engine::{QueryEnvelope, QueryRequest};
use flowistry_server::codec;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One blocking connection speaking the line protocol.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// What one request returned.
pub struct Reply {
    /// Seconds from the first byte written to the decoded envelope.
    pub seconds: f64,
    /// The decoded envelope, or the decode error.
    pub envelope: Result<QueryEnvelope, String>,
}

impl LineClient {
    /// Connects with Nagle off, as a latency-sensitive client would.
    pub fn connect(addr: SocketAddr) -> io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// The raw text of the last response line, without its newline.
    pub fn last_line(&self) -> &str {
        self.line.trim_end_matches('\n')
    }

    /// Sends `request` and waits for its decoded answer.
    pub fn query(&mut self, request: &QueryRequest) -> io::Result<Reply> {
        let mut line = codec::encode_request(request);
        line.push('\n');
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.read_response()?;
        let envelope = codec::decode_envelope(self.last_line());
        Ok(Reply {
            seconds: start.elapsed().as_secs_f64(),
            envelope,
        })
    }

    /// Ships a whole program source as an `update` and returns the raw ack
    /// (`updated <epoch>`) or error line.
    pub fn update(&mut self, source: &str) -> io::Result<&str> {
        let mut message = codec::encode_update(source.len());
        message.push('\n');
        message.push_str(source);
        message.push('\n');
        self.writer.write_all(message.as_bytes())?;
        self.read_response()?;
        Ok(self.last_line())
    }

    fn read_response(&mut self) -> io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }
}
