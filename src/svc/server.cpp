#include "svc/server.hpp"

#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "io/io_util.hpp"
#include "svc/protocol.hpp"

namespace qdv::svc {

namespace {

/// Write all of @p line plus a newline; false once the peer is gone.
bool write_line(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  return io::send_full(fd, out.data(), out.size(), fault::Site::kSvc) ==
         io::XferResult::kOk;
}

/// Longest request line the server buffers before giving up on the
/// connection: one client must not be able to grow server memory without
/// bound by never sending a newline.
constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// Read up to the next newline (leftover bytes stay in @p buffer); false on
/// EOF / error with nothing buffered. On a receive timeout errno stays
/// EAGAIN for the caller to inspect; once more than @p max_bytes arrive
/// without a newline, errno is EMSGSIZE.
bool read_line(int fd, std::string& buffer, std::string& line,
               std::size_t max_bytes = std::string::npos) {
  std::size_t scanned = 0;  // bytes already known to hold no newline
  for (;;) {
    const std::size_t pos = buffer.find('\n', scanned);
    if (pos != std::string::npos) {
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    scanned = buffer.size();
    if (scanned > max_bytes) {
      errno = EMSGSIZE;
      return false;
    }
    char chunk[4096];
    std::size_t got = 0;
    switch (io::recv_some(fd, chunk, sizeof chunk, fault::Site::kSvc, got)) {
      case io::XferResult::kOk:
        buffer.append(chunk, got);
        break;
      case io::XferResult::kTimeout:
        errno = EAGAIN;
        return false;
      case io::XferResult::kClosed:
        errno = 0;
        return false;
    }
  }
}

}  // namespace

struct SocketServer::Impl {
  QueryService& service;
  io::UnixServer server;

  Impl(QueryService& s, std::filesystem::path p)
      : service(s),
        server(std::move(p), [this](int fd) { serve_connection(fd); }) {}

  void serve_connection(int fd) {
    const QueryService::SessionId session = service.open_session("socket");
    try {
      handle_lines(fd, session);
    } catch (const std::exception&) {
      // A handler-side failure closes this connection only; the session
      // teardown below still runs, so a dying socket can never leak its
      // open_sessions slot or in-flight budget (it is released exactly
      // once, on this path or the normal one).
    }
    service.close_session(session);
  }

  void handle_lines(int fd, QueryService::SessionId session) {
    std::string buffer;
    std::string line;
    bool greeted = false;
    while (read_line(fd, buffer, line, kMaxRequestLineBytes)) {
      if (line.empty()) continue;
      WireRequest wire;
      std::string error;
      std::string response;
      const bool parsed = parse_request_line(line, wire, error);
      // Version gate: the first line must be a matching `hello` greeting,
      // so a stale client fails loudly and immediately instead of
      // misparsing responses mid-session.
      if (!greeted) {
        if (parsed && wire.op == WireRequest::Op::kHello &&
            wire.hello_version == kProtocolVersion) {
          greeted = true;
          write_line(fd, "ok qdv v=" + std::to_string(kProtocolVersion));
          continue;
        }
        if (parsed && wire.op == WireRequest::Op::kHello) {
          write_line(fd, "err protocol version mismatch: server speaks v" +
                             std::to_string(kProtocolVersion) +
                             ", client greeted with v" +
                             std::to_string(wire.hello_version) +
                             " (upgrade the older side)");
        } else {
          write_line(fd,
                     "err protocol version mismatch: expected 'hello v=" +
                         std::to_string(kProtocolVersion) +
                         "' greeting before '" + line +
                         "' (stale client, or hand-driven session missing "
                         "the greeting)");
        }
        return;
      }
      if (!parsed) {
        response = "err " + error;
      } else if (wire.op == WireRequest::Op::kHello) {
        response = "ok qdv v=" + std::to_string(kProtocolVersion);
      } else if (wire.op == WireRequest::Op::kPing) {
        response = "ok pong";
      } else if (wire.op == WireRequest::Op::kQuit) {
        write_line(fd, "ok bye");
        return;
      } else if (wire.op == WireRequest::Op::kStats) {
        response = format_stats_line(service.stats());
      } else if (wire.op == WireRequest::Op::kBrush) {
        BrushOutcome outcome;
        switch (wire.brush_action) {
          case WireRequest::BrushAction::kCreate:
            outcome = service.brush_create(session, wire.brush_name,
                                           wire.request.query);
            break;
          case WireRequest::BrushAction::kRefine:
            outcome = service.brush_refine(session, wire.brush_name,
                                           wire.request.query);
            break;
          case WireRequest::BrushAction::kInvert:
            outcome = service.brush_invert(session, wire.brush_name);
            break;
          case WireRequest::BrushAction::kCombine:
            outcome = service.brush_combine(session, wire.brush_name,
                                            wire.brush_with,
                                            wire.brush_combine_op);
            break;
          case WireRequest::BrushAction::kDrop:
            outcome = service.brush_drop(session, wire.brush_name);
            break;
        }
        response = format_brush_response_line(outcome);
      } else {
        const ResultPtr result = service.execute(session, wire.request);
        response = format_response_line(*result, wire.ids_limit);
      }
      if (!write_line(fd, response)) return;
    }
    if (errno == EMSGSIZE)
      write_line(fd, "err line too long (max " +
                         std::to_string(kMaxRequestLineBytes) + " bytes)");
  }
};

SocketServer::SocketServer(QueryService& service, std::filesystem::path socket_path)
    : impl_(std::make_unique<Impl>(service, std::move(socket_path))) {}

SocketServer::~SocketServer() = default;  // the UnixServer stops itself

void SocketServer::start() { impl_->server.start(); }

void SocketServer::stop() { impl_->server.stop(); }

const std::filesystem::path& SocketServer::socket_path() const {
  return impl_->server.path();
}

std::uint64_t SocketServer::connections() const {
  return impl_->server.accepted();
}

SocketClient::SocketClient(const std::filesystem::path& socket_path,
                           std::chrono::milliseconds receive_timeout)
    // The server may still be coming up: retry for about a second.
    : fd_(io::connect_unix(socket_path, std::chrono::seconds(1),
                           receive_timeout)) {
  // Version handshake: fail construction with the server's own message on
  // a mismatch. The destructor never runs for a partially constructed
  // object, so a throwing handshake must close the descriptor here.
  try {
    const std::string reply =
        request("hello v=" + std::to_string(kProtocolVersion));
    std::string body;
    if (!parse_response_line(reply, body))
      throw std::runtime_error("server rejected handshake: " + body);
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

SocketClient::SocketClient(SocketClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

std::string SocketClient::request(const std::string& line) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  if (!write_line(fd_, line)) throw std::runtime_error("connection lost (send)");
  std::string response;
  if (!read_line(fd_, buffer_, response)) {
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw std::runtime_error("receive timed out (server stalled?)");
    throw std::runtime_error("connection lost (recv)");
  }
  return response;
}

}  // namespace qdv::svc
