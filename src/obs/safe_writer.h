#ifndef FASTER_OBS_SAFE_WRITER_H_
#define FASTER_OBS_SAFE_WRITER_H_

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace faster {
namespace obs {

/// Append-only formatter over a caller-supplied buffer, written out with
/// write(2) to up to two fds (-1: none). Async-signal-safe: no allocation,
/// no stdio, no locale. With an fd, a full buffer is flushed and refilled
/// (the flight recorder's dump); with none, it truncates (a log line, a
/// path).
class SafeWriter {
 public:
  SafeWriter(char* buf, size_t cap, int fd1 = -1, int fd2 = -1)
      : buf_{buf}, cap_{cap}, fd1_{fd1}, fd2_{fd2} {}

  void Str(const char* s) {
    while (*s != '\0') Ch(*s++);
  }

  /// Decimal, zero-padded to `width` digits.
  void U64(uint64_t v, uint32_t width = 1) {
    char tmp[20];
    uint32_t n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0 || n < width);
    while (n > 0) Ch(tmp[--n]);
  }

  void I64(int64_t v) {
    if (v < 0) {
      Ch('-');
      U64(static_cast<uint64_t>(-(v + 1)) + 1);
    } else {
      U64(static_cast<uint64_t>(v));
    }
  }

  void Hex(uint64_t v) {
    Str("0x");
    char tmp[16];
    size_t n = 0;
    do {
      tmp[n++] = "0123456789abcdef"[v & 0xf];
      v >>= 4;
    } while (v != 0);
    while (n > 0) Ch(tmp[--n]);
  }

  /// Appends each part: strings as-is, integers in decimal, HexOf in hex,
  /// Digits zero-padded.
  template <class... Parts>
  void Put(const Parts&... parts) {
    (Part(parts), ...);
  }

  size_t size() const { return len_; }

  struct HexOf {
    uint64_t v;
  };
  struct Digits {
    uint64_t v;
    uint32_t width;
  };

  void Flush() {
    WriteFull(fd1_, buf_, len_);
    WriteFull(fd2_, buf_, len_);
    len_ = 0;
  }

  /// Writes all `len` bytes to `fd` (no-op for -1), giving up on an error:
  /// there is nothing useful to do about EIO at crash time.
  static void WriteFull(int fd, const char* data, size_t len) {
    if (fd < 0) return;
    size_t off = 0;
    while (off < len) {
      ssize_t n = ::write(fd, data + off, len - off);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

 private:
  void Part(const char* s) { Str(s); }
  void Part(HexOf h) { Hex(h.v); }
  void Part(Digits d) { U64(d.v, d.width); }
  template <class T>
    requires std::is_integral_v<T>
  void Part(T v) {
    if constexpr (std::is_signed_v<T>) {
      I64(v);
    } else {
      U64(v);
    }
  }

  void Ch(char c) {
    if (len_ == cap_) {
      if (fd1_ < 0 && fd2_ < 0) return;
      Flush();
    }
    buf_[len_++] = c;
  }

  char* buf_;
  size_t cap_;
  size_t len_ = 0;
  int fd1_;
  int fd2_;
};

}  // namespace obs
}  // namespace faster

#endif  // FASTER_OBS_SAFE_WRITER_H_
