#ifndef FASTER_NET_RESP_H_
#define FASTER_NET_RESP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// RESP2 (REdis Serialization Protocol) framing: the incremental request
/// parser the server feeds raw socket reads into, plus reply builders and
/// a reply skipper for client-side pipelining (tools/loadgen, bench).
///
/// The parser accepts both request forms real Redis clients emit:
///   - multibulk:  *2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n
///   - inline:     GET foo\r\n
/// and resumes mid-frame: bytes may arrive split at any boundary (header,
/// bulk payload, even mid-CRLF); state persists across Feed() calls so no
/// input is ever rescanned. Malformed input (bad header, oversized
/// command, too many args) puts the parser into a sticky error state —
/// the server reports the error and closes the connection, as Redis does.

namespace faster {
namespace net {

struct RespLimits {
  /// Longest accepted inline command line (bytes before the newline).
  size_t max_inline = 64 * 1024;
  /// Most arguments in one multibulk command.
  size_t max_args = 1024;
  /// Most payload bytes in one multibulk command, all arguments together.
  size_t max_bulk = 512 * 1024;
};

/// One parsed command: argv[0] is the (case-preserved) command name.
struct RespCommand {
  std::vector<std::string> argv;
};

class RespParser {
 public:
  enum class Result {
    kCommand,   // *out holds one complete command
    kNeedMore,  // frame incomplete; Feed() more bytes
    kError,     // protocol violation; see error() (sticky)
  };

  explicit RespParser(const RespLimits& limits = RespLimits{})
      : limits_{limits} {}

  /// Appends raw bytes from the socket.
  void Feed(const char* data, size_t len) { buf_.append(data, len); }

  /// Extracts the next complete command, if any.
  Result Next(RespCommand* out);

  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed (for backpressure accounting).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  enum class State { kIdle, kBulkArgs, kFailed };

  Result Fail(const std::string& what);
  /// Finds the next CRLF-terminated line at pos_; npos when incomplete.
  size_t FindLineEnd(size_t guard, bool* overlong) const;
  void Compact();

  RespLimits limits_;
  std::string buf_;
  size_t pos_ = 0;  // first unconsumed byte
  State state_ = State::kIdle;
  std::string error_;
  // Multibulk progress (valid in kBulkArgs).
  std::vector<std::string> argv_;
  size_t args_remaining_ = 0;
  size_t bulk_left_ = 0;     // max_bulk less the arguments read so far
  ptrdiff_t bulk_len_ = -1;  // -1: expecting a $<len> header
};

// ---------------------------------------------------------------------------
// Reply builders (server side).
// ---------------------------------------------------------------------------

void AppendSimple(std::string* out, std::string_view s);       // +s\r\n
void AppendError(std::string* out, std::string_view s);        // -s\r\n
void AppendInteger(std::string* out, long long v);             // :v\r\n
void AppendBulk(std::string* out, std::string_view s);         // $n\r\ns\r\n
void AppendNullBulk(std::string* out);                         // $-1\r\n

// ---------------------------------------------------------------------------
// Reply framing (client side).
// ---------------------------------------------------------------------------

/// If one complete reply starts at `pos`, returns the offset one past its
/// end and stores the reply's type byte ('+', '-', ':', '$', '*') in
/// *type; returns std::string_view::npos when the reply is incomplete.
size_t SkipReply(std::string_view buf, size_t pos, char* type);

// ---------------------------------------------------------------------------
// Key/value text mapping for the uint64 count store.
// ---------------------------------------------------------------------------

/// Strict full-string decimal uint64 parse (no sign, no whitespace).
bool ParseU64(std::string_view s, uint64_t* out);

/// Maps an arbitrary RESP key to the store's uint64 key space: decimal
/// strings map to their value (so loadgen/redis-cli keys "0".."N" hit the
/// preloaded range); anything else is FNV-1a hashed. Distinct non-numeric
/// keys may collide — acceptable for a fixed-width-key store fronted by a
/// text protocol; DESIGN.md §11 records the caveat.
uint64_t MapKey(std::string_view s);

}  // namespace net
}  // namespace faster

#endif  // FASTER_NET_RESP_H_
