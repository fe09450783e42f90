#include "net/resp.h"

#include <algorithm>
#include <cstdio>

#include "obs/log.h"

namespace faster {
namespace net {

namespace {

/// Parses a non-negative decimal integer out of [p, end); returns -1 on
/// any non-digit, empty input, or overflow past `cap`.
ptrdiff_t ParseCount(const char* p, const char* end, ptrdiff_t cap) {
  if (p == end) return -1;
  ptrdiff_t v = 0;
  for (; p != end; ++p) {
    if (*p < '0' || *p > '9') return -1;
    v = v * 10 + (*p - '0');
    if (v > cap) return cap + 1;  // saturate: caller rejects > cap
  }
  return v;
}

}  // namespace

RespParser::Result RespParser::Fail(const std::string& what) {
  state_ = State::kFailed;
  error_ = what;
  // Rate-limited: a garbage-spraying client can fail once per byte.
  static obs::LogRateLimit fail_limit{100'000'000};  // 100ms
  obs::LogLimited(fail_limit, obs::LogLevel::kDebug, "resp",
                  "parse failure", obs::LogField{"what", what.c_str()});
  return Result::kError;
}

size_t RespParser::FindLineEnd(size_t guard, bool* overlong) const {
  *overlong = false;
  size_t limit = std::min(buf_.size(), pos_ + guard + 2);
  for (size_t i = pos_; i + 1 < limit; ++i) {
    if (buf_[i] == '\r' && buf_[i + 1] == '\n') return i;
  }
  // No CRLF within the guard window: if that much input is already
  // buffered the line can never terminate legally.
  if (buf_.size() - pos_ > guard + 2) *overlong = true;
  return std::string::npos;
}

void RespParser::Compact() {
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
}

RespParser::Result RespParser::Next(RespCommand* out) {
  if (state_ == State::kFailed) return Result::kError;
  for (;;) {
    if (state_ == State::kIdle) {
      if (pos_ >= buf_.size()) {
        Compact();
        return Result::kNeedMore;
      }
      if (buf_[pos_] == '*') {
        // Multibulk header: *<count>\r\n
        bool overlong = false;
        size_t eol = FindLineEnd(/*guard=*/32, &overlong);
        if (eol == std::string::npos) {
          if (overlong) return Fail("Protocol error: invalid multibulk length");
          return Result::kNeedMore;
        }
        ptrdiff_t n =
            ParseCount(buf_.data() + pos_ + 1, buf_.data() + eol,
                       static_cast<ptrdiff_t>(limits_.max_args));
        if (n < 0 || n > static_cast<ptrdiff_t>(limits_.max_args)) {
          return Fail("Protocol error: invalid multibulk length");
        }
        pos_ = eol + 2;
        if (n == 0) continue;  // *0: empty command, skip (as Redis does)
        argv_.clear();
        args_remaining_ = static_cast<size_t>(n);
        bulk_left_ = limits_.max_bulk;
        bulk_len_ = -1;
        state_ = State::kBulkArgs;
        continue;
      }
      // Inline command: one line of space-separated words, ended by CRLF
      // or, for hand-typed (nc) input, a bare LF.
      std::string_view rest{buf_.data() + pos_,
                            std::min(buf_.size() - pos_,
                                     limits_.max_inline + 2)};
      size_t lf = rest.find('\n');
      std::string_view line = rest.substr(0, lf);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.size() > limits_.max_inline) {
        return Fail("Protocol error: too big inline request");
      }
      if (lf == std::string_view::npos) return Result::kNeedMore;
      out->argv.clear();
      size_t i = 0;
      while (i < line.size()) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
        size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
        if (i > start) out->argv.emplace_back(line.substr(start, i - start));
      }
      pos_ += lf + 1;
      Compact();
      if (out->argv.empty()) continue;  // blank line: skip
      return Result::kCommand;
    }

    // State::kBulkArgs — collecting `args_remaining_` bulk strings.
    if (bulk_len_ < 0) {
      bool overlong = false;
      size_t eol = FindLineEnd(/*guard=*/32, &overlong);
      if (eol == std::string::npos) {
        if (overlong) return Fail("Protocol error: invalid bulk length");
        return Result::kNeedMore;
      }
      if (buf_[pos_] != '$') {
        return Fail("Protocol error: expected '$', got '" +
                    std::string(1, buf_[pos_]) + "'");
      }
      // max_bulk bounds the command's arguments together, not each one.
      auto left = static_cast<ptrdiff_t>(bulk_left_);
      ptrdiff_t len =
          ParseCount(buf_.data() + pos_ + 1, buf_.data() + eol, left);
      if (len < 0 || len > left) {
        return Fail("Protocol error: invalid bulk length");
      }
      pos_ = eol + 2;
      bulk_len_ = len;
      bulk_left_ -= static_cast<size_t>(len);
    }
    size_t need = static_cast<size_t>(bulk_len_) + 2;  // payload + CRLF
    if (buf_.size() - pos_ < need) {
      Compact();
      return Result::kNeedMore;
    }
    size_t payload_end = pos_ + static_cast<size_t>(bulk_len_);
    if (buf_[payload_end] != '\r' || buf_[payload_end + 1] != '\n') {
      return Fail("Protocol error: bulk string not CRLF-terminated");
    }
    argv_.emplace_back(buf_.data() + pos_, static_cast<size_t>(bulk_len_));
    pos_ = payload_end + 2;
    bulk_len_ = -1;
    if (--args_remaining_ == 0) {
      out->argv = std::move(argv_);
      argv_.clear();
      state_ = State::kIdle;
      Compact();
      return Result::kCommand;
    }
  }
}

// ---------------------------------------------------------------------------
// Reply builders.
// ---------------------------------------------------------------------------

void AppendSimple(std::string* out, std::string_view s) {
  out->push_back('+');
  out->append(s);
  out->append("\r\n");
}

void AppendError(std::string* out, std::string_view s) {
  out->push_back('-');
  out->append(s);
  out->append("\r\n");
}

void AppendInteger(std::string* out, long long v) {
  char buf[24];
  int n = std::snprintf(buf, sizeof(buf), ":%lld\r\n", v);
  out->append(buf, static_cast<size_t>(n));
}

void AppendBulk(std::string* out, std::string_view s) {
  char buf[24];
  int n = std::snprintf(buf, sizeof(buf), "$%zu\r\n", s.size());
  out->append(buf, static_cast<size_t>(n));
  out->append(s);
  out->append("\r\n");
}

void AppendNullBulk(std::string* out) { out->append("$-1\r\n"); }

// ---------------------------------------------------------------------------
// Reply framing (client side).
// ---------------------------------------------------------------------------

size_t SkipReply(std::string_view buf, size_t pos, char* type) {
  if (pos >= buf.size()) return std::string_view::npos;
  char t = buf[pos];
  if (type != nullptr) *type = t;
  size_t eol = buf.find("\r\n", pos);
  if (eol == std::string_view::npos) return std::string_view::npos;
  switch (t) {
    case '+':
    case '-':
    case ':':
      return eol + 2;
    case '$': {
      long long len = 0;
      bool neg = false;
      size_t i = pos + 1;
      if (i < eol && buf[i] == '-') {
        neg = true;
        ++i;
      }
      for (; i < eol; ++i) {
        if (buf[i] < '0' || buf[i] > '9') return std::string_view::npos;
        len = len * 10 + (buf[i] - '0');
      }
      if (neg) return eol + 2;  // $-1: null bulk, header only
      size_t end = eol + 2 + static_cast<size_t>(len) + 2;
      return end <= buf.size() ? end : std::string_view::npos;
    }
    case '*': {
      long long count = 0;
      for (size_t i = pos + 1; i < eol; ++i) {
        if (buf[i] < '0' || buf[i] > '9') return std::string_view::npos;
        count = count * 10 + (buf[i] - '0');
      }
      size_t at = eol + 2;
      for (long long i = 0; i < count; ++i) {
        at = SkipReply(buf, at, nullptr);
        if (at == std::string_view::npos) return std::string_view::npos;
      }
      return at;
    }
    default:
      return std::string_view::npos;
  }
}

// ---------------------------------------------------------------------------
// Key/value mapping.
// ---------------------------------------------------------------------------

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

uint64_t MapKey(std::string_view s) {
  uint64_t v;
  if (ParseU64(s, &v)) return v;
  // FNV-1a 64.
  uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace net
}  // namespace faster
