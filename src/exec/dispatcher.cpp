#include "exec/dispatcher.hpp"

#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "util/strutil.hpp"

namespace hadas::exec {

std::size_t resolve_threads(const ExecConfig& config) {
  std::size_t threads = config.threads;
  if (const char* env = std::getenv("HADAS_THREADS")) {
    try {
      const std::size_t parsed = util::parse_size("HADAS_THREADS", env);
      if (parsed > 0) threads = parsed;
    } catch (const std::invalid_argument&) {
      // Not digits only (strtoul would wrap "-1" to 2^64-1 workers): the
      // configured count stands.
    }
  }
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  return threads;
}

ParallelDispatcher::ParallelDispatcher(const ExecConfig& config)
    : threads_(resolve_threads(config)) {
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
}

void ParallelDispatcher::for_each(
    std::size_t n, const std::function<void(std::size_t)>& body) const {
  if (pool_ == nullptr || n <= 1) {
    run_serial_instrumented(n, body);
    return;
  }
  pool_->parallel_for(n, body);
}

}  // namespace hadas::exec
