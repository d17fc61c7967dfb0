// Known-bad fixture for tools/leca_lint.py --fixtures (rule:
// concurrency-primitive). A raw std::thread in the serve runtime is
// flagged by the repo-wide concurrency-primitive rule; a .detach() on
// any thread is the analyzer's detached-thread check
// (tests/analysis/fixtures/detached_thread.cc). The lint-path
// directive makes this file lint as if it lived in src/serve/.
//
// lint-path: src/serve/bad_thread.cc

#include <thread>

namespace leca::serve {

void
badDispatcher()
{
    std::thread worker([] {}); // lint-expect: concurrency-primitive
    worker.join();
}

} // namespace leca::serve
