// Standalone fountain-codec demo: uses the coding library without any
// networking. Encodes a block, simulates an erasure channel, decodes,
// and reports the redundancy — then does the same with the GF(256) RLC
// ablation.
#include <cstdio>

#include "common/rng.h"
#include "fountain/codec.h"
#include "fountain/gf256_kernels.h"

using namespace fmtcp;
using namespace fmtcp::fountain;

int main() {
  const std::uint32_t k = 64;
  const std::size_t symbol_bytes = 160;
  const double channel_loss = 0.2;

  Rng rng(2024);
  const BlockData original = make_deterministic_block(7, k, symbol_bytes);

  std::printf("block: %u symbols x %zu bytes = %zu bytes\n", k,
              symbol_bytes, original.total_bytes());
  std::printf("channel: %.0f%% i.i.d. erasures\n\n", channel_loss * 100);

  // --- Dense random linear fountain (the FMTCP code, paper Eq. 1). ---
  {
    SymbolEncoder encoder(CodingField::kGf2, 7, original, rng.fork());
    BlockDecoder decoder(k, symbol_bytes);
    Rng channel = rng.fork();
    std::uint64_t sent = 0;
    std::uint64_t erased = 0;
    while (!decoder.complete()) {
      const net::EncodedSymbol symbol = encoder.next_symbol();
      ++sent;
      if (channel.bernoulli(channel_loss)) {
        ++erased;
        continue;
      }
      decoder.add_symbol(symbol);
    }
    const bool ok = decoder.decode().bytes() == original.bytes();
    std::printf("random linear fountain:\n");
    std::printf("  sent %llu symbols (%llu erased, %llu redundant)\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(erased),
                static_cast<unsigned long long>(decoder.redundant_count()));
    std::printf("  received %llu, rank %u/%u, decode %s\n",
                static_cast<unsigned long long>(decoder.received_count()),
                decoder.rank(), k, ok ? "byte-exact" : "FAILED");
    std::printf("  overhead beyond k/(1-p): %.1f%%\n\n",
                100.0 * (static_cast<double>(sent) /
                             (k / (1.0 - channel_loss)) -
                         1.0));
  }

  // --- Dense GF(256) RLC (CTCP-style ablation, gf256_rlc.h). ---
  {
    SymbolEncoder encoder(CodingField::kGf256, 7, original, rng.fork());
    Gf256RlcDecoder decoder(k, symbol_bytes);
    Rng channel = rng.fork();
    std::uint64_t sent = 0;
    std::uint64_t erased = 0;
    while (!decoder.complete()) {
      net::EncodedSymbol symbol = encoder.next_symbol();
      ++sent;
      if (channel.bernoulli(channel_loss)) {
        ++erased;
        continue;
      }
      decoder.add_symbol(std::move(symbol));
    }
    const bool ok = decoder.decode().bytes() == original.bytes();
    std::printf("GF(256) random linear (kernel: %s):\n",
                gf256_kernel().name);
    std::printf("  sent %llu symbols (%llu erased, %llu redundant)\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(erased),
                static_cast<unsigned long long>(decoder.redundant_count()));
    std::printf("  received %llu, rank %u/%u, decode %s\n",
                static_cast<unsigned long long>(decoder.received_count()),
                decoder.rank(), k, ok ? "byte-exact" : "FAILED");
    std::printf(
        "  (byte coefficients: dependent receptions ~256x rarer than "
        "GF(2), at multiply-kernel decode cost)\n");
  }
  return 0;
}
