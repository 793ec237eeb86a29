// Binary framed wire protocol of the qdv::dist subsystem (DESIGN.md
// Section 13). Coordinator and workers exchange length-prefixed frames over
// AF_UNIX stream sockets; every frame starts with a fixed header carrying a
// magic number and a wire version, so a stale binary talking to a newer
// peer fails with an explicit version-mismatch error instead of decoding
// garbage. Payloads are little-endian scalar sequences (doubles are moved
// bit-exactly through their IEEE-754 image — partial histogram edges must
// compare equal across processes, not approximately equal).
//
// Thread model: a Channel is one blocking connection; it is not internally
// synchronized — callers serialize access (the coordinator guards each
// worker channel with its own mutex). All blocking receives honor an
// optional SO_RCVTIMEO so a stalled peer surfaces as an error instead of
// wedging the caller. POSIX-only, like the io socket layer under it.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

namespace qdv::dist {

inline constexpr std::uint32_t kWireMagic = 0x51445644u;  // "QDVD"
inline constexpr std::uint16_t kWireVersion = 1;
/// Upper bound on one frame's payload; a header announcing more than this
/// is treated as a corrupt stream.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

enum class MsgType : std::uint16_t {
  kHello = 1,         // coordinator -> worker: version + dataset path
  kHelloAck = 2,      // worker -> coordinator: pid, timesteps, total rows
  kHeartbeat = 3,     // coordinator -> worker liveness probe
  kHeartbeatAck = 4,
  kShardQuery = 5,    // shard-scoped canonical plan (ShardQuery payload)
  kPartialCount = 6,  // u64 count
  kPartialBits = 7,   // serialized windowed BitVector
  kPartialHist1 = 8,  // edges + counts
  kPartialHist2 = 9,  // xedges + yedges + counts
  kError = 10,        // string message (remote evaluation/protocol error)
  kShutdown = 11,     // coordinator -> worker: exit after ack
  kShutdownAck = 12,
};

struct Frame {
  MsgType type = MsgType::kError;
  std::uint32_t seq = 0;  // echoed by responses; matches replies to requests
  std::string payload;
};

/// Peer spoke a different wire version (magic matched, so it *is* a qdv
/// dist peer — just an incompatible one). Carries both versions so callers
/// can produce an actionable message.
class WireVersionError : public std::runtime_error {
 public:
  WireVersionError(std::uint16_t peer, std::uint16_t ours);
  std::uint16_t peer_version;
};

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Bit-exact: the IEEE-754 image moves as a u64.
  void f64(double v);
  /// u32 length prefix + raw bytes.
  void str(std::string_view v);

  std::string take() { return std::move(buf_); }
  const std::string& data() const { return buf_; }

 private:
  std::string buf_;
};

/// Sequential reader over one payload; throws std::runtime_error on any
/// read past the end (truncated/corrupt frame).
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// What a shard sub-request computes; the on-wire subset of
/// svc::RequestKind that merges bit-identically (uniform binning only —
/// adaptive bins depend on the shard's value distribution and stay local).
enum class ShardKind : std::uint8_t {
  kCount = 0,  // popcount of the selection inside the row window
  kBits = 1,   // the windowed selection bitvector itself (backs id queries)
  kHist1 = 2,  // partial conditional 1D histogram (uniform bins)
  kHist2 = 3,  // partial conditional 2D histogram (uniform bins)
};

/// One shard-scoped plan: evaluate @p query at @p timestep, restricted to
/// rows [row_begin, row_end), and return the partial for @p kind.
struct ShardQuery {
  ShardKind kind = ShardKind::kCount;
  std::uint64_t timestep = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = 0;
  std::uint64_t nxbins = 64;
  std::uint64_t nybins = 64;
  std::string var_x;
  std::string var_y;
  std::string query;  // canonical text; empty = all records

  std::string encode() const;
  static ShardQuery decode(std::string_view payload);
};

/// One blocking framed connection. Move-only; closes on destruction.
class Channel {
 public:
  Channel() = default;
  /// Adopt a connected descriptor (worker side: a dup() of the one
  /// io::UnixServer hands its handler); the channel closes it.
  explicit Channel(int fd) : fd_(fd) {}
  /// io::connect_unix to a listening worker socket, retrying for up to
  /// @p connect_timeout while the worker is still coming up; applies
  /// @p recv_timeout (0 = block forever) to every subsequent recv().
  static Channel connect(const std::filesystem::path& socket,
                         std::chrono::milliseconds connect_timeout,
                         std::chrono::milliseconds recv_timeout);
  ~Channel();
  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&& other) noexcept;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool open() const { return fd_ >= 0; }
  void close();

  /// Write one frame in full (EINTR-safe partial-write loop). Throws
  /// std::runtime_error once the peer is gone; the channel is closed.
  void send(const Frame& frame);
  /// Read one full frame (EINTR-safe partial-read loop), validating magic
  /// and version. Throws std::runtime_error on timeout/EOF/corruption (the
  /// channel is closed — a desynced stream cannot be reused) and
  /// WireVersionError on a version mismatch (the frame is drained in full
  /// and the channel stays open, so the caller can still send a clear
  /// error reply before hanging up).
  Frame recv();

 private:
  int fd_ = -1;
};

}  // namespace qdv::dist
