#include "obs/exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

namespace faster {
namespace obs {

namespace {

/// How long after accept a request head may take to arrive, however its
/// bytes trickle in. A constant: scrapes are tiny and local.
constexpr std::chrono::milliseconds kHeadDeadline{2000};
/// Pending connections the listener queues: scrapes are few.
constexpr int kBacklog = 16;

/// Reads until the end of the request head (CRLFCRLF), EOF, error, or
/// kHeadDeadline; returns what was read. The exporter only needs the
/// request line, but draining the head keeps clients happy.
std::string ReadRequestHead(int fd) {
  std::string req;
  char buf[1024];
  const auto deadline = std::chrono::steady_clock::now() + kHeadDeadline;
  for (;;) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    struct pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      break;  // deadline or error: serve what we have
    }
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    req.append(buf, static_cast<size_t>(n));
    if (req.find("\r\n\r\n") != std::string::npos || req.size() > 16384) {
      break;
    }
  }
  return req;
}

void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + ' ' + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

MetricsExporter::MetricsExporter(const ExporterOptions& options,
                                 Handlers handlers)
    : handlers_{std::move(handlers)} {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, kBacklog) != 0) {
    ::close(fd);
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  thread_ = std::thread([this] { ServeLoop(); });
}

MetricsExporter::~MetricsExporter() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void MetricsExporter::ServeLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Poll with a timeout instead of blocking in accept(), so the
    // destructor's stop flag is observed without cross-thread close()
    // races on the listening fd.
    struct pollfd pfd{listen_fd_, POLLIN, 0};
    int pr = ::poll(&pfd, 1, /*timeout_ms=*/250);
    if (pr <= 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    HandleConnection(client);
    ::close(client);
  }
}

void MetricsExporter::HandleConnection(int fd) {
  std::string req = ReadRequestHead(fd);
  // Parse "GET <path> HTTP/1.x" — the only request shape we serve.
  std::string method, path;
  size_t sp1 = req.find(' ');
  if (sp1 != std::string::npos) {
    method = req.substr(0, sp1);
    size_t sp2 = req.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) path = req.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  if (method != "GET") {
    WriteAll(fd, HttpResponse(405, "Method Not Allowed", "text/plain",
                              "only GET is supported\n"));
    return;
  }
  path = path.substr(0, path.find('?'));  // no route reads a query
  if (path == "/metrics") {
    WriteAll(fd,
             HttpResponse(200, "OK", "text/plain; version=0.0.4",
                          handlers_.metrics ? handlers_.metrics() : "# none\n"));
  } else if (path == "/vars") {
    WriteAll(fd, HttpResponse(200, "OK", "application/json",
                              handlers_.vars ? handlers_.vars() : "{}"));
  } else if (path == "/healthz") {
    WriteAll(fd, HttpResponse(200, "OK", "text/plain", "ok\n"));
  } else if (path == "/") {
    std::string index = "faster exporter: /metrics /vars /healthz";
    for (const Handlers::Route& route : handlers_.routes) {
      index += ' ';
      index += route.path;
    }
    index += '\n';
    WriteAll(fd, HttpResponse(200, "OK", "text/plain", index));
  } else {
    for (const Handlers::Route& route : handlers_.routes) {
      if (path == route.path) {
        WriteAll(fd, HttpResponse(200, "OK", "application/json",
                                  route.handler ? route.handler() : "{}"));
        return;
      }
    }
    WriteAll(fd, HttpResponse(404, "Not Found", "text/plain",
                              "unknown path; see / for the route list\n"));
  }
}

}  // namespace obs
}  // namespace faster
