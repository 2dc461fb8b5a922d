// SocketServer over a Unix socket: one client round-trip that ends in a
// `shutdown` op, Stop() from another thread, and connection churn. All run
// Serve() on its own thread, which is the shape that raced on the listen
// fd before it became atomic (tools/ci.sh runs this suite under TSan).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
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

// A numeric field of /proc/self/status ("VmSize" in kB, "Threads"), or
// -1 when it cannot be read.
long ProcStatus(const std::string& field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long value = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field.c_str(), field.size()) == 0 &&
        line[field.size()] == ':') {
      value = std::strtol(line + field.size() + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

TEST(SocketServerTest, ClosedConnectionsDoNotAccumulateThreads) {
  // Each connection thread keeps its stack mapped until it is joined, so
  // a server that does not join closed connections grows by a stack (8 MB
  // of address space) per connection served.
  QueryService service{ServiceConfig{}};
  SocketServer server(&service);
  const std::string path = SocketPath("churn");
  ASSERT_TRUE(server.ListenUnix(path).ok());
  std::thread serving([&server] { server.Serve(); });

  const long threads = ProcStatus("Threads");
  const long before_kb = ProcStatus("VmSize");
  ASSERT_GT(threads, 0);
  ASSERT_GT(before_kb, 0);
  for (int i = 0; i < 500; ++i) {
    const int fd = Connect(path);
    ASSERT_GE(fd, 0) << "cycle " << i;
    ASSERT_NE(RoundTrip(fd, "{\"id\":\"p\",\"op\":\"ping\"}")
                  .find("\"status\":\"ok\""),
              std::string::npos)
        << "cycle " << i;
    ::close(fd);
    // Wait for the connection thread to exit (an exited thread leaves the
    // count even before it is joined), so that at most one runs at a time
    // and the measurement does not depend on how the host schedules them.
    for (int wait = 0; ProcStatus("Threads") > threads && wait < 5000;
         ++wait) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const long growth_kb = ProcStatus("VmSize") - before_kb;
  EXPECT_LT(growth_kb, 256 * 1024) << "VmSize grew by " << growth_kb << " kB";
  server.Stop();
  serving.join();
}

}  // namespace
}  // namespace ecrpq
