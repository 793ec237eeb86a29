#include "dist/wire.hpp"

#include <unistd.h>

#include <cstring>

#include "io/io_util.hpp"

namespace qdv::dist {

namespace {

void put_le(std::string& buf, std::uint64_t v, std::size_t nbytes) {
  for (std::size_t i = 0; i < nbytes; ++i)
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

// 16-byte frame header: magic u32, version u16, type u16, seq u32,
// payload_bytes u32.
constexpr std::size_t kHeaderBytes = 16;

void encode_header(std::string& out, MsgType type, std::uint32_t seq,
                   std::uint32_t payload_bytes) {
  put_le(out, kWireMagic, 4);
  put_le(out, kWireVersion, 2);
  put_le(out, static_cast<std::uint16_t>(type), 2);
  put_le(out, seq, 4);
  put_le(out, payload_bytes, 4);
}

std::uint64_t get_le(const unsigned char* p, std::size_t nbytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < nbytes; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

WireVersionError::WireVersionError(std::uint16_t peer, std::uint16_t ours)
    : std::runtime_error("wire version mismatch: peer speaks v" +
                         std::to_string(peer) + ", this build speaks v" +
                         std::to_string(ours) +
                         " (rebuild or upgrade the stale side)"),
      peer_version(peer) {}

void WireWriter::u8(std::uint8_t v) { put_le(buf_, v, 1); }
void WireWriter::u16(std::uint16_t v) { put_le(buf_, v, 2); }
void WireWriter::u32(std::uint32_t v) { put_le(buf_, v, 4); }
void WireWriter::u64(std::uint64_t v) { put_le(buf_, v, 8); }

void WireWriter::f64(double v) {
  std::uint64_t image = 0;
  static_assert(sizeof image == sizeof v);
  std::memcpy(&image, &v, sizeof image);
  u64(image);
}

void WireWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.append(v.data(), v.size());
}

std::uint8_t WireReader::u8() {
  if (pos_ + 1 > data_.size()) throw std::runtime_error("truncated frame");
  return static_cast<std::uint8_t>(
      get_le(reinterpret_cast<const unsigned char*>(data_.data()) + pos_++, 1));
}

std::uint16_t WireReader::u16() {
  if (pos_ + 2 > data_.size()) throw std::runtime_error("truncated frame");
  const auto v = static_cast<std::uint16_t>(
      get_le(reinterpret_cast<const unsigned char*>(data_.data()) + pos_, 2));
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  if (pos_ + 4 > data_.size()) throw std::runtime_error("truncated frame");
  const auto v = static_cast<std::uint32_t>(
      get_le(reinterpret_cast<const unsigned char*>(data_.data()) + pos_, 4));
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (pos_ + 8 > data_.size()) throw std::runtime_error("truncated frame");
  const std::uint64_t v =
      get_le(reinterpret_cast<const unsigned char*>(data_.data()) + pos_, 8);
  pos_ += 8;
  return v;
}

double WireReader::f64() {
  const std::uint64_t image = u64();
  double v = 0;
  std::memcpy(&v, &image, sizeof v);
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  if (pos_ + n > data_.size()) throw std::runtime_error("truncated frame");
  std::string v(data_.substr(pos_, n));
  pos_ += n;
  return v;
}

std::string ShardQuery::encode() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(timestep);
  w.u64(row_begin);
  w.u64(row_end);
  w.u64(nxbins);
  w.u64(nybins);
  w.str(var_x);
  w.str(var_y);
  w.str(query);
  return w.take();
}

ShardQuery ShardQuery::decode(std::string_view payload) {
  WireReader r(payload);
  ShardQuery q;
  q.kind = static_cast<ShardKind>(r.u8());
  q.timestep = r.u64();
  q.row_begin = r.u64();
  q.row_end = r.u64();
  q.nxbins = r.u64();
  q.nybins = r.u64();
  q.var_x = r.str();
  q.var_y = r.str();
  q.query = r.str();
  return q;
}

Channel Channel::connect(const std::filesystem::path& socket,
                         std::chrono::milliseconds connect_timeout,
                         std::chrono::milliseconds recv_timeout) {
  return Channel(io::connect_unix(socket, connect_timeout, recv_timeout));
}

Channel::~Channel() { close(); }

Channel::Channel(Channel&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Channel::send(const Frame& frame) {
  if (fd_ < 0) throw std::runtime_error("channel not connected");
  if (frame.payload.size() > kMaxFramePayload)
    throw std::runtime_error("frame payload too large");
  std::string out;
  out.reserve(kHeaderBytes + frame.payload.size());
  encode_header(out, frame.type, frame.seq,
                static_cast<std::uint32_t>(frame.payload.size()));
  out += frame.payload;
  switch (io::send_full(fd_, out.data(), out.size(), fault::Site::kWire)) {
    case io::XferResult::kOk:
      return;
    case io::XferResult::kTimeout:
      close();
      throw std::runtime_error("channel send timed out");
    case io::XferResult::kClosed:
      close();
      throw std::runtime_error("channel send failed: peer closed");
  }
}

Frame Channel::recv() {
  if (fd_ < 0) throw std::runtime_error("channel not connected");
  // io::recv_full handles EINTR restarts and partial-read accumulation;
  // EAGAIN/EWOULDBLOCK (the SO_RCVTIMEO expiring) surfaces as kTimeout.
  const auto read_exact = [this](char* dst, std::size_t nbytes) {
    switch (io::recv_full(fd_, dst, nbytes, fault::Site::kWire)) {
      case io::XferResult::kOk:
        return;
      case io::XferResult::kTimeout:
        close();
        throw std::runtime_error("channel receive timed out");
      case io::XferResult::kClosed:
        close();
        throw std::runtime_error("peer closed the channel");
    }
  };

  unsigned char header[kHeaderBytes];
  read_exact(reinterpret_cast<char*>(header), kHeaderBytes);
  const auto magic = static_cast<std::uint32_t>(get_le(header, 4));
  const auto version = static_cast<std::uint16_t>(get_le(header + 4, 2));
  const auto type = static_cast<std::uint16_t>(get_le(header + 6, 2));
  const auto seq = static_cast<std::uint32_t>(get_le(header + 8, 4));
  const auto payload_bytes = static_cast<std::uint32_t>(get_le(header + 12, 4));
  if (magic != kWireMagic) {
    close();
    throw std::runtime_error("bad frame magic (not a qdv dist peer)");
  }
  if (payload_bytes > kMaxFramePayload) {
    close();
    throw std::runtime_error("frame payload length corrupt");
  }
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.seq = seq;
  frame.payload.resize(payload_bytes);
  if (payload_bytes > 0) read_exact(frame.payload.data(), payload_bytes);
  // The header layout is fixed across versions, so a mismatched frame can
  // be drained in full: the stream stays synced and the caller may still
  // send a clear kError reply before giving up.
  if (version != kWireVersion) throw WireVersionError(version, kWireVersion);
  return frame;
}

}  // namespace qdv::dist
