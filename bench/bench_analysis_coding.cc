// §III-B quantitative analysis — regenerates the paper's coding-analysis
// numbers (Eq. 3–7) and cross-checks them against Monte-Carlo runs of the
// actual codec.
//
// Shape to reproduce: under an underestimated loss rate the fixed-rate
// scheme's no-retransmission probability collapses exponentially in the
// block size (Eq. 6), while the fountain code only ever needs a constant
// expected number of extra symbols (Eq. 7).
#include <cstdio>

#include "analysis/coding_analysis.h"
#include "common/rng.h"
#include "fountain/codec.h"
#include "harness/printer.h"

using namespace fmtcp;
using namespace fmtcp::analysis;
using namespace fmtcp::harness;

int main() {
  print_header("SIII-B Eq.3-6: fixed-rate coding under estimation error");
  {
    const double p1 = 0.05;  // Assumed.
    const double p2 = 0.15;  // Actual.
    std::vector<std::vector<std::string>> rows;
    for (std::uint32_t A : {16u, 32u, 64u, 128u, 256u, 512u}) {
      rows.push_back(
          {std::to_string(A), fmt(expected_packets_delivered(A, p1), 1),
           fmt(expected_actual_delivered(A, p1, p2), 1),
           fmt(no_retransmission_probability_exact(A, p1, p2), 4),
           fmt(no_retransmission_probability_bound(A, p1, p2), 4)});
    }
    print_table({"A", "batch a (Eq.4)", "E[X_R] (Eq.5)",
                 "P(no-retx) exact", "Chernoff bound (Eq.6)"},
                rows);
  }

  print_header("SIII-B Eq.7: fountain expected symbols");
  {
    std::vector<std::vector<std::string>> rows;
    Rng rng(2024);
    for (std::uint32_t k : {8u, 16u, 32u, 64u, 128u}) {
      // Monte-Carlo symbols to decode. Rank depends on the coefficients
      // alone, so one-byte all-zero blocks keep the payload work nil.
      double total = 0.0;
      const int trials = 300;
      for (int t = 0; t < trials; ++t) {
        fountain::SymbolEncoder encoder(fountain::CodingField::kGf2, t,
                                        fountain::BlockData(k, 1),
                                        rng.fork());
        fountain::BlockDecoder decoder(k, 1);
        while (!decoder.complete()) {
          decoder.add_symbol(encoder.next_symbol());
        }
        total += static_cast<double>(decoder.received_count());
      }
      for (double p : {0.0, 0.1}) {
        rows.push_back({std::to_string(k), fmt(p, 2),
                        fmt(total / trials / (1.0 - p), 2),
                        fmt(expected_symbols_to_decode(k) / (1.0 - p), 2),
                        fmt(fountain_expected_symbols_bound(k, p), 2)});
      }
    }
    print_table({"k_hat", "loss p", "measured E[Y]", "analytic E[Y]",
                 "paper bound (k+4)/(1-p)"},
                rows);
    std::printf(
        "\nNote: the fountain's expected overhead is ~1.61 symbols "
        "regardless of k_hat; the paper's Eq. 7 uses the looser +4.\n");
  }
  return 0;
}
