#include "baselines/remote_store.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "obs/log.h"

namespace faster {

namespace {

// Formats "SET <key> <value>\r\n" / "GET <key>\r\n" into `out`.
void FormatRequest(std::string* out, bool is_set, uint64_t key,
                   uint64_t value) {
  char buf[64];
  int n = is_set ? std::snprintf(buf, sizeof(buf),
                                 "SET %" PRIu64 " %" PRIu64 "\r\n", key,
                                 value)
                 : std::snprintf(buf, sizeof(buf), "GET %" PRIu64 "\r\n",
                                 key);
  out->append(buf, static_cast<size_t>(n));
}

}  // namespace

RemoteStore::RemoteStore() {
  epoll_fd_.reset(::epoll_create1(EPOLL_CLOEXEC));
  int wake[2];
  if (::pipe(wake) == 0) {
    wake_read_.reset(wake[0]);
    wake_write_.reset(wake[1]);
  }
  if (!epoll_fd_ || !wake_read_) {
    // Construction failed; leave the server thread unstarted (Connect()
    // then returns nullptr). The UniqueFd members release whichever
    // descriptors were created.
    obs::Log(obs::LogLevel::kError, "remote_store",
             "construction failed: epoll/pipe setup",
             obs::LogField{"errno", errno});
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_read_.get();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_read_.get(), &ev);
  server_ = std::thread([this] { ServerLoop(); });
}

RemoteStore::~RemoteStore() {
  stop_.store(true, std::memory_order_release);
  if (server_.joinable()) {
    char b = 1;
    (void)!::write(wake_write_.get(), &b, 1);
    server_.join();
  }
}

std::unique_ptr<RemoteStore::Client> RemoteStore::Connect() {
  if (!server_.joinable()) return nullptr;  // construction failed
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    obs::Log(obs::LogLevel::kError, "remote_store", "socketpair failed",
             obs::LogField{"errno", errno});
    return nullptr;
  }
  net::UniqueFd client_fd{fds[0]};
  net::UniqueFd server_fd{fds[1]};
  {
    std::lock_guard<std::mutex> lock{clients_mutex_};
    pending_clients_.push_back(std::move(server_fd));
  }
  char b = 1;
  (void)!::write(wake_write_.get(), &b, 1);
  return std::unique_ptr<Client>(new Client(std::move(client_fd)));
}

RemoteStore::Client::~Client() = default;

Status RemoteStore::Client::ExecuteBatch(std::vector<Op>* ops) {
  // Pipelined: serialize and send every request, then parse every
  // response. Responses are one CRLF-terminated line each.
  std::string out;
  out.reserve(ops->size() * 24);
  for (const Op& op : *ops) {
    FormatRequest(&out, op.is_set, op.key, op.value);
  }
  if (!net::WriteAllFd(fd_.get(), out.data(), out.size())) {
    return Status::kIoError;
  }

  std::string in;
  size_t lines = 0;
  size_t parsed_to = 0;
  char buf[4096];
  size_t next_op = 0;
  while (lines < ops->size()) {
    ssize_t n = net::ReadSomeFd(fd_.get(), buf, sizeof(buf));
    if (n <= 0) return Status::kIoError;
    in.append(buf, static_cast<size_t>(n));
    // Parse complete responses. "+OK" and "$-1" are one line; a bulk
    // value "$<len>\r\n<value>\r\n" spans two.
    for (;;) {
      size_t eol = in.find("\r\n", parsed_to);
      if (eol == std::string::npos) break;
      const char* line = in.data() + parsed_to;
      Op& op = (*ops)[next_op];
      if (line[0] == '$') {
        long len = std::strtol(line + 1, nullptr, 10);
        if (len < 0) {
          op.found = false;
          op.out = 0;
          parsed_to = eol + 2;
        } else {
          size_t data_eol = in.find("\r\n", eol + 2);
          if (data_eol == std::string::npos) break;  // value not here yet
          op.found = true;
          op.out = std::strtoull(in.data() + eol + 2, nullptr, 10);
          parsed_to = data_eol + 2;
        }
      } else {
        op.found = true;  // +OK (or an error line; callers never send bad
        parsed_to = eol + 2;  // commands through this API)
      }
      ++next_op;
      ++lines;
      if (lines == ops->size()) break;
    }
  }
  return Status::kOk;
}

void RemoteStore::ServerLoop() {
  // Per-connection input buffers (commands can straddle reads). The map
  // also owns the connection fds: erasing an entry closes it.
  struct Conn {
    net::UniqueFd fd;
    std::string buf;
  };
  std::unordered_map<int, Conn> conns;
  epoll_event events[64];
  std::vector<char> scratch(1 << 16);
  std::string responses;
  char reply[48];
  while (!stop_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_.get(), events, 64, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_read_.get()) {
        char drain[64];
        (void)!net::ReadSomeFd(wake_read_.get(), drain, sizeof(drain));
        std::lock_guard<std::mutex> lock{clients_mutex_};
        for (net::UniqueFd& cfd : pending_clients_) {
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = cfd.get();
          if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, cfd.get(),
                          &ev) == 0) {
            int key = cfd.get();
            conns.emplace(key, Conn{std::move(cfd), std::string{}});
          }
          // On epoll_ctl failure cfd stays owned and closes when the
          // pending list is cleared — no leak, the client sees EOF.
        }
        pending_clients_.clear();
        continue;
      }
      auto conn_it = conns.find(fd);
      if (conn_it == conns.end()) continue;
      ssize_t got = net::ReadSomeFd(fd, scratch.data(), scratch.size());
      if (got <= 0) {
        ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
        conns.erase(conn_it);  // UniqueFd closes the descriptor
        continue;
      }
      std::string& buf = conn_it->second.buf;
      buf.append(scratch.data(), static_cast<size_t>(got));
      responses.clear();
      size_t parsed_to = 0;
      for (;;) {
        size_t eol = buf.find("\r\n", parsed_to);
        if (eol == std::string::npos) break;
        // Parse "SET <key> <value>" / "GET <key>" (inline command form).
        // Keys and values are strings, as in Redis itself; per-command
        // string construction mirrors Redis' sds/robj handling.
        const char* line = buf.data() + parsed_to;
        size_t line_len = eol - parsed_to;
        if (std::strncmp(line, "SET ", 4) == 0) {
          const char* key_begin = line + 4;
          const char* space = static_cast<const char*>(
              std::memchr(key_begin, ' ', line_len - 4));
          if (space != nullptr) {
            std::string key{key_begin, static_cast<size_t>(space - key_begin)};
            std::string value{space + 1,
                              static_cast<size_t>(line + line_len - space - 1)};
            table_[std::move(key)] = std::move(value);
            responses.append("+OK\r\n");
          } else {
            responses.append("-ERR syntax\r\n");
          }
        } else if (std::strncmp(line, "GET ", 4) == 0) {
          std::string key{line + 4, line_len - 4};
          auto it = table_.find(key);
          if (it == table_.end()) {
            responses.append("$-1\r\n");
          } else {
            int len = std::snprintf(reply, sizeof(reply), "$%zu\r\n",
                                    it->second.size());
            responses.append(reply, static_cast<size_t>(len));
            responses.append(it->second);
            responses.append("\r\n");
          }
        } else {
          responses.append("-ERR unknown command\r\n");
        }
        commands_.fetch_add(1, std::memory_order_relaxed);
        parsed_to = eol + 2;
      }
      buf.erase(0, parsed_to);
      if (!responses.empty()) {
        net::WriteAllFd(fd, responses.data(), responses.size());
      }
    }
  }
  // conns' UniqueFds close every remaining connection.
}

}  // namespace faster
