// sage_serve: the long-running pipeline daemon (docs/SERVICE.md).
//
// Binds a TCP listener on 127.0.0.1 and serves parse/codegen/interop/
// fuzz jobs over the serve frame protocol until killed. Each connection
// gets a reader thread; jobs shard across one shared worker pool and
// reuse the session pipeline cache, so the first job per corpus pays
// the full pipeline and everything after is a cache hit.
//
// usage: sage_serve [--port N] [--jobs N] [--cache N] [--once]
//   --port N   listen port (default 0: ephemeral, printed on stdout)
//   --jobs N   worker threads (default 0: hardware concurrency)
//   --cache N  parse-cache capacity (default 4096; 0 disables)
//   --once     exit after the first connection closes (test harness use)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "serve/server.hpp"
#include "serve/transport.hpp"

using namespace sage;

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  bool once = false;
  serve::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    auto number = [&](const char* flag) -> unsigned long {
      if (i + 1 >= argc) {
        fprintf(stderr, "error: %s requires a value\n", flag);
        exit(2);
      }
      char* end = nullptr;
      const unsigned long v = strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        fprintf(stderr, "error: %s expects a number, got '%s'\n", flag,
                argv[i]);
        exit(2);
      }
      return v;
    };
    if (strcmp(argv[i], "--port") == 0) {
      const unsigned long v = number("--port");
      if (v > 65535) {
        fprintf(stderr, "error: --port expects 0..65535, got '%s'\n",
                argv[i]);
        return 2;
      }
      port = static_cast<std::uint16_t>(v);
    } else if (strcmp(argv[i], "--jobs") == 0) {
      options.jobs = number("--jobs");
    } else if (strcmp(argv[i], "--cache") == 0) {
      options.parse_cache_capacity = number("--cache");
    } else if (strcmp(argv[i], "--once") == 0) {
      once = true;
    } else {
      fprintf(stderr,
              "usage: sage_serve [--port N] [--jobs N] [--cache N] [--once]\n");
      return 2;
    }
  }

  try {
    serve::SocketAcceptor acceptor(port);
    serve::Server server(options);
    printf("sage_serve listening on 127.0.0.1:%u jobs=%zu\n",
           static_cast<unsigned>(acceptor.port()), server.jobs());
    fflush(stdout);
    if (once) {
      std::unique_ptr<serve::Transport> conn = acceptor.accept();
      if (conn != nullptr) server.serve_connection(*conn);
    } else {
      server.serve_acceptor(acceptor);
    }
    const serve::StatsSnapshot stats = server.stats();
    fputs(stats.to_json().c_str(), stdout);
  } catch (const std::exception& e) {
    fprintf(stderr, "sage_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
