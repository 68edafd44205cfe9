// Clean fixture for the memory-order audit: every relaxed access and
// split-order CAS carries a `dope-lint: mo-proof(<anchor>)` marker
// pointing at the DESIGN.md section that argues its correctness, so
// MO001/MO002 stay silent and the tool exits 0.
// Never compiled — scanned by dope_lint in the lint test suite.
#include <atomic>

struct Seq {
  std::atomic<unsigned> Head{0};

  void publish() { Head.store(1, std::memory_order_release); }

  unsigned snapshot() const {
    return Head.load(std::memory_order_relaxed); // dope-lint: mo-proof(design-16-spsc)
  }

  bool advance(unsigned &Expected) {
    // dope-lint: mo-proof(design-16-spsc)
    return Head.compare_exchange_strong(Expected, Expected + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
  }
};
