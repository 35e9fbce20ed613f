// Versioned, length-prefixed binary frame codec for the NEC wire
// protocol (DESIGN.md §5h).
//
// Every message on a connection is one frame:
//
//   offset  size  field
//   0       4     magic      0x4E454331 ("NEC1", LE on the wire)
//   4       1     version    kProtocolVersion (2)
//   5       1     type       FrameType
//   6       2     reserved   must be 0
//   8       8     session id client-assigned wire session id (LE)
//   16      4     payload length in bytes (LE, <= kMaxPayloadBytes)
//   20      4     CRC-32 (IEEE) of the payload bytes (LE)
//   24      ...   payload
//
// The session id lives in the HEADER, not the payload, so a router can
// consistent-hash and forward frames without understanding payload
// schemas. All integers are little-endian; payload floats are IEEE-754
// binary32 in little-endian byte order.
//
// Decoding is incremental (Feed bytes, pop frames) and defensive: a
// malformed header or a CRC mismatch yields a *typed* DecodeStatus — the
// decoder never throws, never reads past what was fed, and latches the
// first error (a byte stream that lied once cannot be trusted to frame
// correctly again; the owner closes the connection and maps the status
// onto the runtime's kBadInput fault taxonomy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace nec::net {

inline constexpr std::uint32_t kMagic = 0x4E454331u;  // "NEC1"
/// v2 adds the auth handshake (kAuthChallenge/kAuthResponse/kAuthReject),
/// shard load reporting (kStatusRequest/kShardStatus), the draining
/// reshard frames (kDrainSession/kSessionSnapshot/kRestoreSession), and
/// the optional trace-context frame (kTraceContext) — a pure metadata
/// frame, so it rides the same version: peers that predate it reject the
/// type byte and close, which only ever happens when an operator turns
/// tracing on against an old peer.
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderSize = 24;
/// Generous bound: the largest legitimate frame is one chunk of 192 kHz
/// shadow output (~768 KiB); anything near the cap is an attack or a bug.
inline constexpr std::uint32_t kMaxPayloadBytes = 8u << 20;

/// Closed set of frame types. Values are the wire encoding.
enum class FrameType : std::uint8_t {
  kHello = 1,         ///< client → server: u32 min_version, u32 max_version
  kHelloAck = 2,      ///< server → client: u32 version, u32 input_rate,
                      ///< u32 chunk_samples, u32 output_rate,
                      ///< u32 output_samples_per_chunk
  kOpenSession = 3,   ///< client → server: u64 speaker_seed, u64 ref_seed
  kOpenAck = 4,       ///< server → client: empty
  kSubmitChunk = 5,   ///< client → server: float32[] monitored samples
  kShadowData = 6,    ///< server → client: float32[] shadow (air rate)
  kCloseSession = 7,  ///< client → server: empty (flush tail, then kClosed)
  kClosed = 8,        ///< server → client: empty (all shadow delivered)
  kError = 9,         ///< either: u32 ErrorCategory, then message bytes
  kPing = 10,         ///< either: opaque payload echoed back
  kPong = 11,         ///< reply to kPing with the same payload
  // ------------------------------------------------------------- v2
  kAuthChallenge = 12,  ///< server → client: u64 nonce (sent instead of
                        ///< kHelloAck when a shared secret is configured)
  kAuthResponse = 13,   ///< client → server: u64 tag =
                        ///< AuthTag(secret, nonce) (auth.h)
  kAuthReject = 14,     ///< server → client: u32 ErrorCategory, then
                        ///< message bytes; connection closes after
  kStatusRequest = 15,  ///< router → shard: empty (post-auth)
  kShardStatus = 16,    ///< shard → router: ShardStatusPayload
  kDrainSession = 17,   ///< router → shard: empty; session id in header
                        ///< asks the shard to quiesce + snapshot it
  kSessionSnapshot = 18,  ///< shard → router: SessionSnapshotPayload;
                          ///< the shard has forgotten the session
  kRestoreSession = 19,   ///< router → shard: SessionSnapshotPayload
                          ///< verbatim; shard re-enrolls and replies
                          ///< kOpenAck
  kTraceContext = 20,     ///< client → server (forwarded router → shard):
                          ///< u64 flow id minted by the sender's
                          ///< TraceRecorder; applies to the NEXT
                          ///< kSubmitChunk of the same header session id,
                          ///< stitching that chunk's spans across
                          ///< processes. Receivers without tracing
                          ///< enabled drop it silently — it never
                          ///< changes processing semantics (§5g).
};

const char* FrameTypeName(FrameType type);
bool IsKnownFrameType(std::uint8_t value);

/// One decoded (or to-be-encoded) frame.
struct Frame {
  FrameType type = FrameType::kPing;
  std::uint64_t session_id = 0;
  std::vector<std::uint8_t> payload;
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the classic
/// zlib polynomial, computed slice-by-8 (eight bytes per step through
/// eight derived tables; the value equals the bytewise table CRC).
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size);
inline std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  return Crc32(data.data(), data.size());
}

/// Appends the wire encoding of `frame` to *out. NEC_CHECKs the payload
/// bound (callers construct payloads; exceeding it is a bug, not input).
void EncodeFrame(const Frame& frame, std::string* out);

/// Typed outcome of one FrameDecoder::Next() call.
enum class DecodeStatus {
  kOk = 0,        ///< *frame holds the next complete frame
  kNeedMore,      ///< not enough buffered bytes yet — Feed more
  kBadMagic,      ///< header does not start with kMagic
  kBadVersion,    ///< version byte != kProtocolVersion
  kBadType,       ///< type byte outside the FrameType enum
  kBadReserved,   ///< reserved header bytes not zero
  kBadLength,     ///< payload length exceeds kMaxPayloadBytes
  kBadCrc,        ///< payload CRC mismatch
};

const char* DecodeStatusName(DecodeStatus status);

/// True for statuses that poison the stream (everything but kOk /
/// kNeedMore).
inline bool IsDecodeError(DecodeStatus status) {
  return status != DecodeStatus::kOk && status != DecodeStatus::kNeedMore;
}

/// Incremental frame parser. Feed() arbitrary byte slices; Next() pops
/// complete frames in order. The first decode error is sticky: every
/// subsequent Next() re-reports it and no further bytes are consumed
/// (the connection owner is expected to drop the stream).
class FrameDecoder {
 public:
  void Feed(const std::uint8_t* data, std::size_t size);
  void Feed(std::span<const std::uint8_t> data) {
    Feed(data.data(), data.size());
  }

  /// Decodes the next buffered frame into *frame (kOk), or reports why it
  /// cannot. Never reads beyond the bytes previously Fed.
  DecodeStatus Next(Frame* frame);

  /// Bytes fed but not yet consumed by successfully decoded frames.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  bool failed() const { return IsDecodeError(error_); }

  /// Drops all buffered bytes and clears a latched error (a fresh
  /// connection reuses the decoder).
  void Reset();

 private:
  DecodeStatus Latch(DecodeStatus status) {
    error_ = status;
    return status;
  }

  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already decoded
  DecodeStatus error_ = DecodeStatus::kNeedMore;  ///< latched first error
};

// --------------------------------------------------- payload builders

/// Append little-endian scalars / float arrays to a payload.
void PutU32(std::vector<std::uint8_t>* out, std::uint32_t v);
void PutU64(std::vector<std::uint8_t>* out, std::uint64_t v);
void PutFloats(std::vector<std::uint8_t>* out, std::span<const float> v);

/// Bounds-checked sequential payload reader. Every getter returns false
/// (and poisons the reader) on truncation; ok() must be true after the
/// last read AND complete() true if the schema allows no trailing bytes.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> payload)
      : data_(payload) {}

  bool U32(std::uint32_t* v);
  bool U64(std::uint64_t* v);
  /// Consumes all remaining bytes as float32s (size must be a multiple
  /// of 4).
  bool Floats(std::vector<float>* v);
  /// Consumes all remaining bytes as text.
  std::string RemainingText();

  bool ok() const { return ok_; }
  bool complete() const { return ok_ && offset_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - offset_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
  bool ok_ = true;
};

// ------------------------------------------------ v2 payload schemas

/// kShardStatus: a shard's own view of its load, polled by the router's
/// prober so admission control reacts before per-connection buffering
/// becomes the only backpressure.
struct ShardStatusPayload {
  std::uint32_t queue_depth = 0;      ///< runtime pool queue depth
  std::uint32_t active_sessions = 0;  ///< live wire sessions on the shard
  float e2e_p99_ms = 0.0f;            ///< end-to-end p99 (queue + compute)
  std::uint64_t overload_total = 0;   ///< cumulative kOverload rejections
};

void PutShardStatus(std::vector<std::uint8_t>* out,
                    const ShardStatusPayload& status);
/// Strict parse: false on truncation or trailing bytes.
bool ParseShardStatus(std::span<const std::uint8_t> payload,
                      ShardStatusPayload* status);

/// kSessionSnapshot / kRestoreSession: the complete mid-stream state of a
/// sticky session, sufficient to re-enroll it on another shard with
/// bit-identical continuation. Enrollment is seed-deterministic, so only
/// the seeds travel — not the reference audio. The modulation gain latch
/// crosses as raw IEEE-754 bits so the migrated stream applies the exact
/// same gain.
struct SessionSnapshotPayload {
  std::uint64_t speaker_seed = 0;
  std::uint64_t ref_seed = 0;
  std::uint64_t chunks_done = 0;     ///< chunks fully processed pre-drain
  std::uint64_t latch_bits = 0;      ///< bit_cast<u64> of the double
                                     ///< modulation reference peak
                                     ///< (0 bits == not yet latched)
  std::vector<float> tail;           ///< buffered partial-chunk samples
};

void PutSessionSnapshot(std::vector<std::uint8_t>* out,
                        const SessionSnapshotPayload& snapshot);
/// Strict parse: false on truncation or a non-float-aligned tail.
bool ParseSessionSnapshot(std::span<const std::uint8_t> payload,
                          SessionSnapshotPayload* snapshot);

}  // namespace nec::net
