#include "dp/move_nets.h"

namespace dreamplace {

void MoveNets::scan(const Database& db, const Index* cells, int count,
                    Index also) {
  cells_.assign(cells, cells + count);
  halfW_.resize(count);
  halfH_.resize(count);
  cx_.resize(count);
  cy_.resize(count);
  setPins_.clear();
  for (int k = 0; k < count; ++k) {
    const Index c = cells[k];
    halfW_[k] = db.cellWidth(c) / 2;
    halfH_[k] = db.cellHeight(c) / 2;
    for (Index s = db.cellPinBegin(c); s < db.cellPinEnd(c); ++s) {
      const Index pin = db.cellPinAt(s);
      setPins_.push_back({db.pinNet(pin),
                          static_cast<std::int32_t>(setPins_.size()), k,
                          pin});
    }
  }
  std::sort(setPins_.begin(), setPins_.end(),
            [](const SetPin& a, const SetPin& b) { return a.net < b.net; });

  nets_.clear();
  pins_.clear();
  pinNets_.resize(setPins_.size());
  for (std::size_t i = 0; i < setPins_.size();) {
    Net n;
    n.net = setPins_[i].net;
    n.weight = db.netWeight(n.net);
    n.pinBegin = static_cast<std::int32_t>(pins_.size());
    for (; i < setPins_.size() && setPins_[i].net == n.net; ++i) {
      const SetPin& sp = setPins_[i];
      pins_.push_back(
          {sp.slot, db.pinOffsetX(sp.pin), db.pinOffsetY(sp.pin)});
      pinNets_[sp.order] = static_cast<std::int32_t>(nets_.size());
    }
    n.pinEnd = static_cast<std::int32_t>(pins_.size());
    for (Index p = db.netPinBegin(n.net); p < db.netPinEnd(n.net); ++p) {
      const double px = db.pinX(p);
      const double py = db.pinY(p);
      n.all.add(px, py);
      const Index c = db.pinCell(p);
      if (c != also &&
          std::find(cells_.begin(), cells_.end(), c) == cells_.end()) {
        n.rest.add(px, py);
      }
    }
    nets_.push_back(n);
  }
}

double MoveNets::current() const {
  double total = 0.0;
  for (const Net& n : nets_) {
    total += n.all.hpwl(n.weight);
  }
  return total;
}

double MoveNets::placed() const {
  double total = 0.0;
  for (const Net& n : nets_) {
    total += fold(n, n.rest).hpwl(n.weight);
  }
  return total;
}

double MoveNets::placedPerPin() const {
  double total = 0.0;
  for (const std::int32_t i : pinNets_) {
    const Net& n = nets_[i];
    total += fold(n, n.rest).hpwl(n.weight);
  }
  return total;
}

SwapCost swapCost(const Database& db, MoveNets& a, MoveNets& b) {
  const Index ca = a.cell(0);
  const Index cb = b.cell(0);
  a.place(0, db.cellX(cb), db.cellY(cb));
  b.place(0, db.cellX(ca), db.cellY(ca));
  // Merge the two ascending net lists. A shared net takes b's rest box,
  // which leaves out both cells, and folds both cells' pins onto it.
  SwapCost cost;
  const std::vector<MoveNets::Net>& na = a.nets();
  const std::vector<MoveNets::Net>& nb = b.nets();
  std::size_t i = 0, j = 0;
  while (i < na.size() || j < nb.size()) {
    if (j == nb.size() || (i < na.size() && na[i].net < nb[j].net)) {
      cost.before += na[i].all.hpwl(na[i].weight);
      cost.after += a.fold(na[i], na[i].rest).hpwl(na[i].weight);
      ++i;
    } else if (i == na.size() || nb[j].net < na[i].net) {
      cost.before += nb[j].all.hpwl(nb[j].weight);
      cost.after += b.fold(nb[j], nb[j].rest).hpwl(nb[j].weight);
      ++j;
    } else {
      cost.before += nb[j].all.hpwl(nb[j].weight);
      cost.after +=
          a.fold(na[i], b.fold(nb[j], nb[j].rest)).hpwl(nb[j].weight);
      ++i;
      ++j;
    }
  }
  return cost;
}

}  // namespace dreamplace
