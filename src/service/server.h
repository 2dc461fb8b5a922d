// Transport drivers for QueryService. Both speak the same protocol through
// the same code path — one ServiceSession per client, one HandleLine call
// per input line — so the deterministic batch driver exercises exactly the
// bytes the socket server ships. That is deliberate: the differential and
// robustness suites run against RunBatch, and their verdicts transfer to
// the socket path because the only difference is how lines arrive.
#ifndef ECRPQ_SERVICE_SERVER_H_
#define ECRPQ_SERVICE_SERVER_H_

#include <atomic>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "service/query_service.h"

namespace ecrpq {

// Deterministic single-session driver: reads request lines from `in`,
// writes one response line (newline-terminated) per request to `out`.
// Blank lines are skipped. Returns after EOF or a shutdown request.
Status RunBatch(QueryService& service, std::istream& in, std::ostream& out);

// Line-delimited protocol over a Unix-domain or loopback TCP socket,
// thread-per-connection, one ServiceSession per connection. A shutdown
// request answers its own connection, then stops the accept loop; Stop()
// does the same from outside.
class SocketServer {
 public:
  explicit SocketServer(QueryService* service) : service_(service) {}
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Exactly one Listen* call before Serve(). ListenUnix unlinks a stale
  // socket file first; ListenTcp binds loopback only and reports the
  // kernel-chosen port when `port` is 0.
  Status ListenUnix(const std::string& path);
  Status ListenTcp(int port, int* bound_port);

  // Blocks until Stop() or a client's shutdown request; joins every
  // connection thread before returning, so the QueryService is quiescent
  // after Serve() returns. Threads of closed connections are joined as new
  // connections arrive, so their number does not grow with the number of
  // connections served.
  void Serve();
  void Stop();

 private:
  void HandleConnection(int fd);

  QueryService* service_;
  // Read by Serve(), taken (exchanged for -1) by Stop() from any thread.
  std::atomic<int> listen_fd_{-1};
  std::string unix_path_;  // Non-empty => unlink on teardown.
  std::atomic<bool> stopping_{false};
  struct Connection {
    std::thread thread;
    std::atomic<bool> finished{false};  // Set by the thread as it ends.
  };
  // Touched only by Serve().
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace ecrpq

#endif  // ECRPQ_SERVICE_SERVER_H_
