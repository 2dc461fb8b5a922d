#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <string>

#include "service/protocol.h"

namespace ecrpq {

Status RunBatch(QueryService& service, std::istream& in, std::ostream& out) {
  std::unique_ptr<ServiceSession> session = service.OpenSession();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out << session->HandleLine(line) << "\n";
    if (session->shutdown_requested()) break;
  }
  out.flush();
  return Status::OK();
}

namespace {

// Full-buffer send; EPIPE (client went away mid-response) just ends the
// connection, it is not a server error.
bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

SocketServer::~SocketServer() {
  Stop();
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

Status SocketServer::ListenUnix(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::Invalid("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket(): " + std::string(strerror(errno)));
  ::unlink(path.c_str());  // A stale file from a dead server blocks bind.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s =
        Status::Internal("bind(" + path + "): " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    const Status s = Status::Internal("listen(): " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  listen_fd_.store(fd, std::memory_order_release);
  unix_path_ = path;
  return Status::OK();
}

Status SocketServer::ListenTcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // Never a public bind.
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s = Status::Internal("bind(port " + std::to_string(port) +
                                      "): " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    const Status s = Status::Internal("listen(): " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      const Status s =
          Status::Internal("getsockname(): " + std::string(strerror(errno)));
      ::close(fd);
      return s;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  listen_fd_.store(fd, std::memory_order_release);
  return Status::OK();
}

void SocketServer::Serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd =
        ::accept(listen_fd_.load(std::memory_order_acquire), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Stop() closed the listen socket.
    }
    std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
      if (!c->finished.load(std::memory_order_acquire)) return false;
      c->thread.join();
      return true;
    });
    auto connection = std::make_unique<Connection>();
    connection->thread = std::thread([this, fd, c = connection.get()] {
      HandleConnection(fd);
      c->finished.store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(connection));
  }
  for (const std::unique_ptr<Connection>& c : connections_) c->thread.join();
  connections_.clear();
}

void SocketServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() wakes a blocked accept(); close() alone does not on all
    // platforms.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void SocketServer::HandleConnection(int fd) {
  std::unique_ptr<ServiceSession> session = service_->OpenSession();
  const size_t max_line = service_->config().max_line_bytes;
  std::string pending;
  // When a line overruns max_line_bytes we answer once, then discard bytes
  // until its newline — bounded memory even against a hostile client.
  bool discarding = false;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // Client closed; any partial line is dropped.
    size_t start = 0;
    for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
      if (buf[i] != '\n') continue;
      if (discarding) {
        discarding = false;
      } else {
        pending.append(buf + start, i - start);
        if (!pending.empty()) {
          std::string response = session->HandleLine(pending);
          response += "\n";
          if (!SendAll(fd, response)) {
            ::close(fd);
            return;
          }
          if (session->shutdown_requested()) {
            ::close(fd);
            Stop();
            return;
          }
        }
      }
      pending.clear();
      start = i + 1;
    }
    if (!discarding) {
      pending.append(buf + start, static_cast<size_t>(n) - start);
      if (pending.size() > max_line) {
        const std::string response =
            ErrorResponseLine(nullptr, StatusCode::kCapacityExceeded,
                              "request line exceeds max_line_bytes") +
            "\n";
        if (!SendAll(fd, response)) {
          ::close(fd);
          return;
        }
        pending.clear();
        discarding = true;
      }
    }
  }
  ::close(fd);
}

}  // namespace ecrpq
