// SocketServer over a Unix socket: one client round-trip that ends in a
// `shutdown` op, and Stop() from another thread. Both run Serve() on its
// own thread, which is the shape that raced on the listen fd before it
// became atomic (tools/ci.sh runs this suite under TSan).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "service/query_service.h"
#include "service/server.h"

namespace ecrpq {
namespace {

std::string SocketPath(const std::string& name) {
  return ::testing::TempDir() + "ecrpq_srv_" + std::to_string(::getpid()) +
         "_" + name + ".sock";
}

// Connects to the server's Unix socket; -1 on failure.
int Connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one request line and reads back one response line.
std::string RoundTrip(int fd, const std::string& request) {
  const std::string line = request + "\n";
  EXPECT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  std::string response;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') response.push_back(c);
  return response;
}

TEST(SocketServerTest, ShutdownRequestEndsServe) {
  QueryService service{ServiceConfig{}};
  SocketServer server(&service);
  const std::string path = SocketPath("shutdown");
  ASSERT_TRUE(server.ListenUnix(path).ok());
  std::thread serving([&server] { server.Serve(); });

  const int fd = Connect(path);
  ASSERT_GE(fd, 0);
  EXPECT_NE(RoundTrip(fd, "{\"id\":\"p\",\"op\":\"ping\"}")
                .find("\"id\":\"p\",\"status\":\"ok\""),
            std::string::npos);
  EXPECT_NE(RoundTrip(fd, "{\"id\":\"bye\",\"op\":\"shutdown\"}")
                .find("\"shutting_down\":true"),
            std::string::npos);
  // Serve() returns once the shutdown stopped the accept loop and the
  // connection thread is joined.
  serving.join();
  ::close(fd);
}

TEST(SocketServerTest, StopFromAnotherThreadEndsServe) {
  QueryService service{ServiceConfig{}};
  SocketServer server(&service);
  const std::string path = SocketPath("stop");
  ASSERT_TRUE(server.ListenUnix(path).ok());
  std::thread serving([&server] { server.Serve(); });

  const int fd = Connect(path);
  ASSERT_GE(fd, 0);
  EXPECT_NE(RoundTrip(fd, "{\"id\":\"p\",\"op\":\"ping\"}")
                .find("\"status\":\"ok\""),
            std::string::npos);
  server.Stop();
  ::close(fd);  // Ends the connection thread Serve() joins.
  serving.join();
  // Stop() is idempotent; the destructor calls it again.
  server.Stop();
}

}  // namespace
}  // namespace ecrpq
