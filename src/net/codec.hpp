// Versioned binary wire codec for network messages.
//
// Until now every transport in the tree moved net::MessagePtr *pointers*
// (the simulator and the loopback fabric live in one address space). A real
// socket transport moves bytes, so messages need a serialized form. This
// header provides the three pieces, all protocol-agnostic:
//
//   * WireWriter / WireReader — bounds-checked little-endian primitives.
//     A reader that runs past the end of its buffer latches a failure bit
//     instead of touching out-of-range memory; decoders check ok() once at
//     the end rather than after every field.
//   * The frame header — magic, format version, message tag, source and
//     destination endpoint ids, and an explicit payload length:
//
//         offset  size  field
//              0     2  magic 0xACDC (little-endian on the wire)
//              2     1  format version (kWireVersion; bump on layout change)
//              3     1  flags (reserved, must be 0)
//              4     2  wire tag (identifies the message type)
//              6     4  source HostId
//             10     4  destination HostId
//             14     4  payload length in bytes
//             18     …  payload (message fields, per-type layout)
//
//     A frame is exactly one datagram; decode rejects anything whose
//     payload length disagrees with the bytes actually received, so a
//     truncated or padded datagram can never half-parse.
//   * CodecRegistry — maps stable wire tags to per-type encode/decode
//     functions. Message structs live in protocol layers above net/, so the
//     registry is populated by those layers (see src/proto/wire.hpp);
//     transports depend only on this registry and stay protocol-agnostic.
//
// Wire tags are part of the protocol's public interface: once assigned they
// are never reused or renumbered (docs/WIRE_FORMAT.md is the authoritative
// table). The version byte covers the framing and all payload layouts; any
// incompatible change bumps it and old frames are rejected, not misread.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"

namespace wan::net {

/// Stable identifier of a message type on the wire. Tags are assigned once,
/// in docs/WIRE_FORMAT.md, and never reused.
using WireTag = std::uint16_t;

inline constexpr std::uint16_t kWireMagic = 0xACDC;
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderSize = 18;
/// Largest frame a transport will move: the practical single-datagram UDP
/// payload ceiling (65535 - 8 UDP - 20 IP). Encoding anything bigger fails
/// (the caller counts it as an oversize drop) rather than fragmenting.
inline constexpr std::size_t kMaxFrameSize = 65507;

/// Append-only little-endian serializer.
class WireWriter {
 public:
  WireWriter() = default;
  /// Adopts `reuse`'s allocation (cleared, capacity kept) so hot encode paths
  /// can recycle buffers instead of allocating one per frame.
  explicit WireWriter(std::vector<std::uint8_t>&& reuse)
      : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { append(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void duration(sim::Duration d) { i64(d.count_nanos()); }
  /// Length-prefixed byte string (u32 length + raw bytes).
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }
  /// Raw byte run, no length prefix — the caller's layout carries the length
  /// (the reliability envelope embeds whole frames this way).
  void raw(const std::uint8_t* p, std::size_t n) { append(p, n); }
  void host_id(HostId id) { u32(id.value()); }
  void user_id(UserId id) { u32(id.value()); }
  void app_id(AppId id) { u32(id.value()); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian deserializer. Reading past the end latches
/// ok() == false and yields zero values; decoders verify ok() (and usually
/// exhausted()) once when done.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int64_t i64() { return read<std::int64_t>(); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) ok_ = false;  // canonical bools only: reject 2..255
    return v == 1;
  }
  sim::Duration duration() { return sim::Duration::nanos(i64()); }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  HostId host_id() { return HostId(u32()); }
  UserId user_id() { return UserId(u32()); }
  AppId app_id() { return AppId(u32()); }
  /// Raw byte run of exactly `n` bytes (no length prefix); fails when fewer
  /// remain.
  std::vector<std::uint8_t> raw(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    std::vector<std::uint8_t> out(p_, p_ + n);
    p_ += n;
    return out;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when every byte has been consumed — decoders require this so a
  /// frame with trailing garbage is rejected, not silently accepted.
  [[nodiscard]] bool exhausted() const noexcept { return p_ == end_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  void fail() noexcept { ok_ = false; }

 private:
  template <typename T>
  T read() {
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

/// A decoded frame: who sent it, who it is for, the message itself, and the
/// wire tag it arrived under (transports dispatch envelopes by tag).
struct WireFrame {
  HostId from{};
  HostId to{};
  MessagePtr msg;
  WireTag tag = 0;
};

/// Why a decode was rejected (transports feed these into drop counters).
enum class DecodeError : std::uint8_t {
  kTruncated,    ///< shorter than the header, or payload shorter than length
  kBadMagic,     ///< first two bytes are not kWireMagic
  kBadVersion,   ///< format version this build does not speak
  kUnknownTag,   ///< no decoder registered for the tag
  kMalformed,    ///< per-type decoder rejected the payload
};

[[nodiscard]] const char* to_cstring(DecodeError e) noexcept;

/// Tag-keyed registry of per-type wire codecs.
///
/// Protocol layers register each message type once under its stable tag
/// (duplicate tags or types abort: both are programming errors caught at
/// startup). Thereafter encode/decode are read-only and safe from any
/// thread — the recv loop of every socket transport decodes through the
/// process-global instance.
class CodecRegistry {
 public:
  /// Serializes `msg`'s fields (not the frame header).
  using EncodeFn = std::function<void(const Message& msg, WireWriter& w)>;
  /// Parses one payload; returns nullptr if the bytes are malformed. The
  /// registry additionally rejects decoders that leave bytes unconsumed.
  using DecodeFn = std::function<MessagePtr(WireReader& r)>;

  [[nodiscard]] static CodecRegistry& global();

  /// Registers a codec for `type` under `tag`. Aborts on tag or type reuse.
  void register_codec(WireTag tag, TypeId type, EncodeFn encode,
                      DecodeFn decode);

  /// A registered type's tag and encoder, resolved under the registry lock
  /// once; encoding through it takes no lock. Codecs are registered once at
  /// startup and never replaced, so the pointer stays valid for the life of
  /// the registry.
  struct Encoder {
    WireTag tag = 0;
    const EncodeFn* encode = nullptr;
  };
  /// The encoder for `msg`'s type, or nullopt if it was never registered.
  [[nodiscard]] std::optional<Encoder> encoder_for(const Message& msg) const;

  /// Encodes a full frame through an already-resolved encoder, recycling
  /// `out`'s allocation. Returns false (leaving *out cleared) when the frame
  /// would exceed kMaxFrameSize.
  static bool encode_into(const Encoder& encoder, HostId from, HostId to,
                          const Message& msg, std::vector<std::uint8_t>* out);

  /// Encodes a full frame (header + payload). Returns nullopt when the type
  /// is unregistered or the frame would exceed kMaxFrameSize.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> encode(
      HostId from, HostId to, const Message& msg) const;

  /// Same as encode(), but recycles `out`'s allocation (cleared then filled),
  /// so steady-state hot paths — the reactor's send side — stop allocating
  /// once buffers have grown to their working size. Returns false (leaving
  /// *out cleared or partially written, contents unspecified) when the type
  /// is unregistered or the frame would exceed kMaxFrameSize.
  bool encode_into(HostId from, HostId to, const Message& msg,
                   std::vector<std::uint8_t>* out) const;

  /// Decodes a full frame. Exactly one of the result fields is set.
  struct Decoded {
    std::optional<WireFrame> frame;
    DecodeError error = DecodeError::kTruncated;
    [[nodiscard]] bool ok() const noexcept { return frame.has_value(); }
  };
  [[nodiscard]] Decoded decode(const std::uint8_t* data,
                               std::size_t size) const;

  [[nodiscard]] std::size_t registered_count() const;

  /// Registered tags in ascending order (docs and tests enumerate these).
  [[nodiscard]] std::vector<WireTag> tags() const;

 private:
  struct Entry {
    WireTag tag = 0;
    EncodeFn encode;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint32_t, Entry> by_type_;   ///< TypeId value keyed
  std::unordered_map<WireTag, DecodeFn> by_tag_;
};

}  // namespace wan::net
