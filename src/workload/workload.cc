#include "workload/workload.hh"

#include <algorithm>
#include <bit>

#include "common/check.hh"
#include "workload/splash.hh"

namespace ascoma::workload {

void GeneratorStream::refill() {
  if (h_.done()) return;
  promise_type& p = h_.promise();
  p.size = 0;
  h_.resume();
  set_window(p.batch.data(), p.batch.data() + p.size);
  if (p.error) std::rethrow_exception(std::exchange(p.error, nullptr));
}

OpFactory::OpFactory(ByteCount page_bytes, ByteCount line_bytes)
    : page_bytes_(page_bytes),
      line_bytes_(line_bytes),
      line_mask_(page_bytes / line_bytes - 1) {
  ASCOMA_CHECK_MSG(std::has_single_bit(page_bytes.value()) &&
                       std::has_single_bit(line_bytes.value()) &&
                       line_bytes <= page_bytes,
                   "op generator page/line sizes must be powers of two");
}

NodeId Workload::home_of(VPageId page) const {
  const std::uint64_t per = pages_per_node();
  ASCOMA_CHECK(page.value() < total_pages());
  return NodeId(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(page.value() / per, nodes() - 1)));
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        double scale) {
  if (name == "barnes") return std::make_unique<BarnesWorkload>(scale);
  if (name == "em3d") return std::make_unique<Em3dWorkload>(scale);
  if (name == "fft") return std::make_unique<FftWorkload>(scale);
  if (name == "lu") return std::make_unique<LuWorkload>(scale);
  if (name == "ocean") return std::make_unique<OceanWorkload>(scale);
  if (name == "radix") return std::make_unique<RadixWorkload>(scale);
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"barnes", "em3d", "fft",
                                                  "lu",     "ocean", "radix"};
  return kNames;
}

}  // namespace ascoma::workload
