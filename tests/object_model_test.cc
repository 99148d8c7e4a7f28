#include "core/object_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/class_snapshot.h"
#include "test_seed.h"

namespace most {
namespace {

class ObjectModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateClass("CARS", {{"PLATE", false, ValueType::kString}},
                                /*spatial=*/true)
                    .ok());
    ASSERT_TRUE(
        db_.CreateClass("MOTELS", {{"PRICE", false, ValueType::kDouble}})
            .ok());
  }

  MostDatabase db_;
};

TEST_F(ObjectModelTest, ClassCreation) {
  EXPECT_TRUE(db_.HasClass("CARS"));
  EXPECT_FALSE(db_.HasClass("PLANES"));
  EXPECT_FALSE(db_.CreateClass("CARS", {}).ok());  // Duplicate.
  // Reserved attribute names rejected.
  EXPECT_FALSE(
      db_.CreateClass("BAD", {{kAttrX, true, ValueType::kNull}}).ok());
  // Spatial classes get position attributes implicitly.
  auto cars = db_.GetClass("CARS");
  ASSERT_TRUE(cars.ok());
  EXPECT_TRUE((*cars)->spatial());
  bool has_x = false;
  for (const auto& a : (*cars)->attributes()) {
    if (a.name == kAttrX) has_x = true;
  }
  EXPECT_TRUE(has_x);
}

TEST_F(ObjectModelTest, ObjectLifecycle) {
  auto car = db_.CreateObject("CARS");
  ASSERT_TRUE(car.ok());
  ObjectId id = (*car)->id();
  EXPECT_TRUE((*car)->IsSpatial());
  EXPECT_TRUE((*car)->GetStatic("PLATE").ok());
  EXPECT_TRUE((*car)->GetStatic("PLATE")->is_null());

  EXPECT_TRUE(db_.UpdateStatic("CARS", id, "PLATE", Value("RWW860")).ok());
  EXPECT_EQ((*car)->GetStatic("PLATE")->string_value(), "RWW860");
  EXPECT_FALSE(db_.UpdateStatic("CARS", id, "NOPE", Value(1)).ok());
  EXPECT_FALSE(db_.UpdateStatic("CARS", 999, "PLATE", Value(1)).ok());

  EXPECT_TRUE(db_.DeleteObject("CARS", id).ok());
  EXPECT_FALSE(db_.DeleteObject("CARS", id).ok());
  EXPECT_FALSE(db_.CreateObject("NOPE").ok());
}

TEST_F(ObjectModelTest, MotionAndPosition) {
  auto car = db_.CreateObject("CARS");
  ASSERT_TRUE(car.ok());
  ObjectId id = (*car)->id();
  db_.clock().AdvanceTo(10);
  ASSERT_TRUE(db_.SetMotion("CARS", id, {100, 50}, {2, -1}).ok());
  EXPECT_EQ((*car)->PositionAt(10), Point2(100, 50));
  EXPECT_EQ((*car)->PositionAt(15), Point2(110, 45));
  // Position "changes" without further updates as the clock advances.
  db_.clock().AdvanceTo(20);
  EXPECT_EQ((*car)->PositionAt(db_.Now()), Point2(120, 40));
}

TEST_F(ObjectModelTest, MotionSegmentsAlignXandY) {
  auto car = db_.CreateObject("CARS");
  ASSERT_TRUE(car.ok());
  ObjectId id = (*car)->id();
  auto fx = TimeFunction::Piecewise({{0, 1.0}, {10, 0.0}});
  auto fy = TimeFunction::Piecewise({{0, 0.0}, {5, 2.0}});
  ASSERT_TRUE(fx.ok());
  ASSERT_TRUE(fy.ok());
  ASSERT_TRUE(db_.UpdateDynamic("CARS", id, kAttrX, 0.0, *fx).ok());
  ASSERT_TRUE(db_.UpdateDynamic("CARS", id, kAttrY, 0.0, *fy).ok());

  auto segs = (*car)->MotionSegments(Interval(0, 20));
  ASSERT_EQ(segs.size(), 3u);  // Cuts at t=5 and t=10.
  EXPECT_EQ(segs[0].ticks, Interval(0, 4));
  EXPECT_EQ(segs[1].ticks, Interval(5, 9));
  EXPECT_EQ(segs[2].ticks, Interval(10, 20));
  // Segment motion agrees with attribute evaluation at every tick.
  for (const MotionSegment& seg : segs) {
    for (Tick t = seg.ticks.begin; t <= seg.ticks.end; ++t) {
      Point2 from_seg = seg.motion.At(static_cast<double>(t));
      Point2 from_attr = (*car)->PositionAt(t);
      EXPECT_NEAR(from_seg.x, from_attr.x, 1e-9) << t;
      EXPECT_NEAR(from_seg.y, from_attr.y, 1e-9) << t;
    }
  }
}

TEST_F(ObjectModelTest, Regions) {
  EXPECT_TRUE(
      db_.DefineRegion("P", Polygon::Rectangle({0, 0}, {10, 10})).ok());
  EXPECT_TRUE(db_.GetRegion("P").ok());
  EXPECT_FALSE(db_.GetRegion("Q").ok());
}

TEST_F(ObjectModelTest, UpdateListenersFire) {
  int fired = 0;
  std::string last_class;
  db_.AddUpdateListener([&](const std::string& cls, ObjectId) {
    ++fired;
    last_class = cls;
  });
  auto car = db_.CreateObject("CARS");
  ASSERT_TRUE(car.ok());
  EXPECT_EQ(fired, 1);
  ASSERT_TRUE(db_.SetMotion("CARS", (*car)->id(), {0, 0}, {1, 1}).ok());
  // One notification for both axes, after both are written; the update
  // count still counts one update per coordinate attribute.
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(last_class, "CARS");
  EXPECT_EQ(db_.update_count(), 3u);
}

// SetMotion hits its failpoint once, before either axis is written: an
// injected error leaves the motion, the update count and the listeners
// exactly as they were.
TEST_F(ObjectModelTest, SetMotionFailpointGuardsBothAxes) {
  auto car = db_.CreateObject("CARS");
  ASSERT_TRUE(car.ok());
  const ObjectId id = (*car)->id();
  int fired = 0;
  db_.AddUpdateListener([&](const std::string&, ObjectId) { ++fired; });
  auto& fp = FailpointRegistry::Instance();
  const uint64_t hits = fp.triggered("core/update_dynamic");
  ASSERT_TRUE(fp.Arm("core/update_dynamic", "noop").ok());
  ASSERT_TRUE(db_.SetMotion("CARS", id, {1, 2}, {3, 4}).ok());
  fp.Disarm("core/update_dynamic");
  EXPECT_EQ(fp.triggered("core/update_dynamic"), hits + 1);
  EXPECT_EQ(fired, 1);

  const uint64_t updates = db_.update_count();
  ASSERT_TRUE(fp.Arm("core/update_dynamic", "error*1").ok());
  EXPECT_FALSE(db_.SetMotion("CARS", id, {50, 60}, {-1, -1}).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(db_.update_count(), updates);
  EXPECT_EQ(db_.GetClass("CARS").value()->Get(id).value()->PositionAt(10),
            (Point2{31, 42}));
}

// Every mutator moves version(), the key of the per-version evaluation
// context: a mutation that left it alone would let evaluations share
// relations computed before it. The clock is not part of it.
TEST_F(ObjectModelTest, EveryMutatorChangesVersion) {
  uint64_t last = db_.version();
  auto changed = [&](const char* what) {
    const uint64_t now = db_.version();
    EXPECT_NE(now, last) << what << " left the version unchanged";
    last = now;
  };
  auto car = db_.CreateObject("CARS");
  ASSERT_TRUE(car.ok());
  const ObjectId id = (*car)->id();
  changed("CreateObject");
  ASSERT_TRUE(db_.RestoreObject("CARS", 100).ok());
  changed("RestoreObject");
  ASSERT_TRUE(db_.DeleteObject("CARS", 100).ok());
  changed("DeleteObject");
  ASSERT_TRUE(db_.UpdateStatic("CARS", id, "PLATE", Value("AAA111")).ok());
  changed("UpdateStatic");
  ASSERT_TRUE(db_.UpdateDynamic("CARS", id, kAttrX, 3.0,
                                TimeFunction::Linear(1.0))
                  .ok());
  changed("UpdateDynamic");
  ASSERT_TRUE(db_.SetMotion("CARS", id, {1, 1}, {1, 0}).ok());
  changed("SetMotion(name)");
  auto cars = db_.GetClass("CARS");
  ASSERT_TRUE(cars.ok());
  ASSERT_TRUE(db_.SetMotion(*cars, id, {2, 2}, {0, 1}).ok());
  changed("SetMotion(class)");
  ASSERT_TRUE(
      db_.DefineRegion("P", Polygon::Rectangle({0, 0}, {10, 10})).ok());
  changed("DefineRegion");
  ASSERT_TRUE(
      db_.DefineRegion("P", Polygon::Rectangle({0, 0}, {20, 20})).ok());
  changed("DefineRegion (redefinition)");
  ASSERT_TRUE(db_.CreateClass("TRUCKS", {}, /*spatial=*/true).ok());
  changed("CreateClass");

  db_.clock().Advance(5);
  EXPECT_EQ(db_.version(), last) << "the clock is not part of the version";
  // Rejected mutations change nothing.
  EXPECT_FALSE(db_.CreateClass("TRUCKS", {}).ok());
  EXPECT_FALSE(db_.DeleteObject("CARS", 100).ok());
  EXPECT_EQ(db_.version(), last);
}

TEST_F(ObjectModelTest, NonSpatialClassHasNoPosition) {
  auto motel = db_.CreateObject("MOTELS");
  ASSERT_TRUE(motel.ok());
  EXPECT_FALSE((*motel)->IsSpatial());
}

TEST_F(ObjectModelTest, ExplicitUpdatesStampLastUpdate) {
  auto car = db_.CreateObject("CARS");
  ASSERT_TRUE(car.ok());
  ObjectId id = (*car)->id();
  EXPECT_EQ((*car)->last_update(), 0);  // Creation counts as an update.

  db_.clock().AdvanceTo(17);
  ASSERT_TRUE(db_.SetMotion("CARS", id, {1, 1}, {1, 0}).ok());
  EXPECT_EQ((*car)->last_update(), 17);

  db_.clock().AdvanceTo(30);
  ASSERT_TRUE(db_.UpdateStatic("CARS", id, "PLATE", Value("AAA111")).ok());
  EXPECT_EQ((*car)->last_update(), 30);
}

TEST_F(ObjectModelTest, IsStaleComparesAgainstHorizon) {
  auto car = db_.CreateObject("CARS");
  ASSERT_TRUE(car.ok());
  const MostObject& obj = **car;
  EXPECT_FALSE(IsStale(obj, /*now=*/50, /*horizon=*/50));  // Boundary.
  EXPECT_TRUE(IsStale(obj, /*now=*/51, /*horizon=*/50));
  EXPECT_FALSE(IsStale(obj, /*now=*/51, /*horizon=*/-1));  // Disabled.

  // A fresh update at t=60 resets the clock.
  db_.clock().AdvanceTo(60);
  ASSERT_TRUE(db_.SetMotion("CARS", obj.id(), {0, 0}, {0, 0}).ok());
  EXPECT_FALSE(IsStale(obj, /*now=*/100, /*horizon=*/50));
  EXPECT_TRUE(IsStale(obj, /*now=*/111, /*horizon=*/50));
}

// The position axes are fixed members of the object, yet by name they read
// like any other dynamic attribute: GetDynamic, MutableDynamic, HasDynamic
// and dynamics(), whose iteration keeps the name order a map of all the
// attributes would have.
TEST_F(ObjectModelTest, PositionAxesReadByName) {
  ASSERT_TRUE(db_.CreateClass("BOATS",
                              {{"AFT", true, ValueType::kNull},
                               {"ZONE", true, ValueType::kNull},
                               {"NAME", false, ValueType::kString}},
                              /*spatial=*/true)
                  .ok());
  auto boat = db_.CreateObject("BOATS");
  ASSERT_TRUE(boat.ok());
  const ObjectId id = (*boat)->id();
  ASSERT_TRUE(db_.SetMotion("BOATS", id, {3, 4}, {1, -1}).ok());
  ASSERT_TRUE(
      db_.UpdateDynamic("BOATS", id, "ZONE", 7.0, TimeFunction::Linear(2.0))
          .ok());
  const MostObject& obj = **boat;

  std::vector<std::string> names;
  for (const auto& [name, attr] : obj.dynamics()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"AFT", kAttrX, kAttrY, "ZONE"}));
  EXPECT_EQ(obj.dynamics().size(), 4u);

  auto x = obj.GetDynamic(kAttrX);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(*x, &obj.position_x());
  EXPECT_EQ((*boat)->MutableDynamic(kAttrY), &obj.position_y());
  EXPECT_EQ(obj.position_x().value(), 3.0);
  EXPECT_EQ(obj.position_y().SlopeAt(db_.Now()), -1.0);
  EXPECT_EQ((*obj.GetDynamic("ZONE"))->value(), 7.0);
  EXPECT_FALSE(obj.GetDynamic("NAME").ok());

  // A named write to an axis is the motion write's state.
  ASSERT_TRUE(db_.UpdateDynamic("BOATS", id, kAttrX, 9.0,
                                TimeFunction::Linear(0.5))
                  .ok());
  EXPECT_EQ(obj.PositionAt(db_.Now() + 2), (Point2{10, 2}));

  // A copy compares equal attribute by attribute, axes included.
  MostObject copy = obj;
  EXPECT_TRUE(copy.dynamics() == obj.dynamics());
  copy.SetDynamic(kAttrY, DynamicAttribute(0.0, 0, TimeFunction()));
  EXPECT_FALSE(copy.dynamics() == obj.dynamics());

  // An object with one axis is not spatial, and SetMotion names the
  // missing one.
  MostObject half(99, "BOATS");
  half.SetDynamic(kAttrX, DynamicAttribute());
  EXPECT_TRUE(half.HasDynamic(kAttrX));
  EXPECT_FALSE(half.HasDynamic(kAttrY));
  EXPECT_FALSE(half.IsSpatial());
  EXPECT_EQ(half.dynamics().size(), 1u);
  auto motel = db_.CreateObject("MOTELS");
  ASSERT_TRUE(motel.ok());
  Status s = db_.SetMotion("MOTELS", (*motel)->id(), {0, 0}, {1, 1});
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
  EXPECT_EQ((*motel)->dynamics().size(), 0u);
}

// One motion state of the model: SetMotion(position, velocity) at `at`.
struct ModelMotion {
  Point2 position;
  Vec2 velocity;
  Tick at = 0;
};

// Checks every row of `snap` against MotionSegments of the same object:
// the coefficients must be bit-equal, not merely close.
void ExpectRowsMatchMotionSegments(const ClassSnapshot& snap,
                                   const ObjectClass& cls, Interval window) {
  for (size_t i = 0; i < snap.size(); ++i) {
    const MostObject* obj = cls.Find(snap.id(i));
    ASSERT_NE(obj, nullptr) << snap.id(i);
    EXPECT_EQ(snap.object(i), obj);
    EXPECT_EQ(snap.last_update(i), obj->last_update());
    ASSERT_TRUE(snap.spatial_ok(i));
    const std::vector<MotionSegment> segs = obj->MotionSegments(window);
    ASSERT_EQ(snap.seg_count(i), segs.size()) << "object " << snap.id(i);
    for (size_t k = 0; k < segs.size(); ++k) {
      const uint32_t s = snap.seg_begin(i) + static_cast<uint32_t>(k);
      EXPECT_EQ(snap.seg_t0()[s], segs[k].ticks.begin);
      EXPECT_EQ(snap.seg_t1()[s], segs[k].ticks.end);
      EXPECT_EQ(std::bit_cast<uint64_t>(snap.ox()[s]),
                std::bit_cast<uint64_t>(segs[k].motion.origin.x));
      EXPECT_EQ(std::bit_cast<uint64_t>(snap.oy()[s]),
                std::bit_cast<uint64_t>(segs[k].motion.origin.y));
      EXPECT_EQ(std::bit_cast<uint64_t>(snap.vx()[s]),
                std::bit_cast<uint64_t>(segs[k].motion.velocity.x));
      EXPECT_EQ(std::bit_cast<uint64_t>(snap.vy()[s]),
                std::bit_cast<uint64_t>(segs[k].motion.velocity.y));
    }
  }
}

// The row store against a std::map model. Seeded sequences of creations,
// out-of-order restores, deletes and motion updates (hits and misses) run
// on CARS while TRUCKS takes every fourth creation, so CARS' ids have
// gaps. After every step the class iterates exactly the model's ids in
// ascending order, finds every live id at the address it was created at,
// misses absent ids without an object, and answers lower_bound like the
// model. At the end of each sequence whole-class and scoped snapshots hold
// rows bit-equal to MotionSegments.
TEST_F(ObjectModelTest, StoreMatchesMapModel) {
  ASSERT_TRUE(db_.CreateClass("TRUCKS", {}, /*spatial=*/true).ok());
  ObjectClass* cars = db_.GetClass("CARS").value();
  const ObjectClass& view = *cars;
  for (uint64_t seed :
       test::SuiteSeeds("ObjectModelTest.StoreMatchesMapModel", {1, 2, 3})) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Start each sequence from an empty class.
    std::vector<ObjectId> leftover;
    for (const auto& [id, obj] : view.objects()) leftover.push_back(id);
    for (ObjectId id : leftover) ASSERT_TRUE(db_.DeleteObject("CARS", id).ok());

    std::map<ObjectId, const MostObject*> created;  // Address at creation.
    std::map<ObjectId, ModelMotion> motion;
    std::set<ObjectId> trucks;
    auto pick_id = [&]() -> ObjectId {
      // A live id two times in three, else any id up to past the highest.
      if (!created.empty() && rng.UniformInt(0, 2) > 0) {
        auto it = created.begin();
        std::advance(it, rng.UniformInt(0, created.size() - 1));
        return it->first;
      }
      const ObjectId top = created.empty() ? 0 : created.rbegin()->first;
      return static_cast<ObjectId>(rng.UniformInt(0, top + 40));
    };
    for (int step = 0; step < 600; ++step) {
      const int op = static_cast<int>(rng.UniformInt(0, 9));
      if (op <= 2) {
        const bool truck = rng.UniformInt(0, 3) == 0;
        auto obj = db_.CreateObject(truck ? "TRUCKS" : "CARS");
        ASSERT_TRUE(obj.ok());
        if (truck) {
          trucks.insert((*obj)->id());
        } else {
          created[(*obj)->id()] = *obj;
          motion[(*obj)->id()] = {{0, 0}, {0, 0}, db_.Now()};
        }
      } else if (op <= 4) {
        const ObjectId id = pick_id();
        if (trucks.count(id) > 0) continue;  // Ids stay unique across classes.
        auto obj = db_.RestoreObject("CARS", id);
        ASSERT_EQ(obj.ok(), created.count(id) == 0) << "restore " << id;
        if (obj.ok()) {
          EXPECT_EQ((*obj)->id(), id);
          created[id] = *obj;
          motion[id] = {{0, 0}, {0, 0}, db_.Now()};
        }
      } else if (op <= 5) {
        const ObjectId id = pick_id();
        ASSERT_EQ(db_.DeleteObject("CARS", id).ok(), created.erase(id) > 0)
            << "delete " << id;
        motion.erase(id);
      } else {
        const ObjectId id = pick_id();
        const ModelMotion m{{static_cast<double>(rng.UniformInt(-50, 50)),
                             static_cast<double>(rng.UniformInt(-50, 50))},
                            {static_cast<double>(rng.UniformInt(-3, 3)),
                             static_cast<double>(rng.UniformInt(-3, 3))},
                            db_.Now()};
        ASSERT_EQ(db_.SetMotion(cars, id, m.position, m.velocity).ok(),
                  created.count(id) > 0)
            << "set motion " << id;
        if (created.count(id) > 0) motion[id] = m;
      }
      if (rng.UniformInt(0, 3) == 0) db_.clock().Advance(1);

      // Iteration: the model's ids, ascending, each row naming its id.
      ASSERT_EQ(view.size(), created.size());
      ASSERT_EQ(view.objects().size(), created.size());
      auto want = created.begin();
      for (const auto& [id, obj] : view.objects()) {
        ASSERT_NE(want, created.end());
        ASSERT_EQ(id, want->first);
        EXPECT_EQ(obj.id(), id);
        EXPECT_EQ(&obj, want->second) << "object " << id << " moved";
        ++want;
      }
      ASSERT_EQ(want, created.end());
      if (!created.empty()) {
        EXPECT_EQ(view.objects().rbegin()->first, created.rbegin()->first);
      }
      // Hits, misses and lower_bound against the model.
      for (int probe = 0; probe < 8; ++probe) {
        const ObjectId id = pick_id();
        const bool live = created.count(id) > 0;
        const MostObject* found = view.Find(id);
        EXPECT_EQ(found, live ? created[id] : nullptr) << "find " << id;
        EXPECT_EQ(view.Get(id).ok(), live);
        if (!live) {
          EXPECT_EQ(view.Get(id).status().code(), StatusCode::kNotFound);
        }
        auto lb = view.objects().lower_bound(id);
        auto model_lb = created.lower_bound(id);
        if (model_lb == created.end()) {
          EXPECT_TRUE(lb == view.objects().end()) << "lower_bound " << id;
        } else {
          ASSERT_FALSE(lb == view.objects().end()) << "lower_bound " << id;
          EXPECT_EQ(lb->first, model_lb->first);
        }
      }
    }
    // Every live object moves as its last SetMotion said.
    for (const auto& [id, m] : motion) {
      const Tick t = db_.Now() + 3;
      const double dt = static_cast<double>(t - m.at);
      EXPECT_EQ(view.Find(id)->PositionAt(t),
                (Point2{m.position.x + m.velocity.x * dt,
                        m.position.y + m.velocity.y * dt}))
          << "object " << id;
    }
    // A few routes, so snapshots take the general (multi-piece) path too.
    int routes = 0;
    for (const auto& [id, obj] : created) {
      if (routes++ == 5) break;
      auto f = TimeFunction::Piecewise({{0, 1.5}, {4, -0.25}});
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE(db_.UpdateDynamic("CARS", id, kAttrY, 2.0, *f).ok());
    }
    const Interval window(db_.Now(), db_.Now() + 20);
    ClassSnapshot whole;
    whole.Build(view, window);
    ASSERT_EQ(whole.size(), created.size());
    ExpectRowsMatchMotionSegments(whole, view, window);
    // A scope of live ids, absent ids and the other class's ids: its rows
    // are the whole-class rows of its live ids.
    std::set<ObjectId> scope;
    for (int k = 0; k < 30; ++k) scope.insert(pick_id());
    scope.insert(trucks.begin(), trucks.end());
    ClassSnapshot scoped;
    scoped.Build(view, window, &scope);
    size_t expected = 0;
    for (ObjectId id : scope) {
      if (created.count(id) == 0) continue;
      ASSERT_LT(expected, scoped.size());
      EXPECT_EQ(scoped.id(expected), id);
      ++expected;
    }
    EXPECT_EQ(scoped.size(), expected);
    ExpectRowsMatchMotionSegments(scoped, view, window);
  }
}

// Drain threads apply motion updates to disjoint objects of one class at
// once (docs/sharding.md): each update looks its object up in the shared
// row store, which must be a pure read. Four threads, each owning the ids
// congruent to its index mod 4, leave exactly the state a serial replay of
// the same updates leaves. ./ci.sh tsan runs this under ThreadSanitizer.
TEST_F(ObjectModelTest, ConcurrentSetMotionOnDisjointObjects) {
  constexpr int kThreads = 4;
  constexpr int kObjects = 2000;
  constexpr int kRounds = 25;
  MostDatabase serial;
  ASSERT_TRUE(serial.CreateClass("CARS", {{"PLATE", false, ValueType::kString}},
                                 /*spatial=*/true)
                  .ok());
  for (MostDatabase* db : {&db_, &serial}) {
    for (int i = 0; i < kObjects; ++i) {
      ASSERT_TRUE(db->CreateObject("CARS").ok());
    }
    db->clock().AdvanceTo(7);
  }
  auto apply = [](MostDatabase* db, ObjectClass* cls, int owner, int round) {
    for (const auto& [id, obj] : cls->objects()) {
      if (static_cast<int>(id % kThreads) != owner) continue;
      const double v = static_cast<double>(id) * 0.5 + round;
      if (!db->SetMotion(cls, id, {v, -v}, {round * 0.25, 1.0 / (id + 1)})
               .ok()) {
        ADD_FAILURE() << "SetMotion " << id;
      }
    }
  };
  ObjectClass* cars = db_.GetClass("CARS").value();
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      for (int r = 0; r < kRounds; ++r) apply(&db_, cars, k, r);
    });
  }
  for (std::thread& t : threads) t.join();
  ObjectClass* serial_cars = serial.GetClass("CARS").value();
  for (int r = 0; r < kRounds; ++r) {
    for (int k = 0; k < kThreads; ++k) apply(&serial, serial_cars, k, r);
  }

  EXPECT_EQ(db_.update_count(), serial.update_count());
  ASSERT_EQ(cars->size(), serial_cars->size());
  for (const auto& [id, obj] : serial_cars->objects()) {
    const MostObject* got = cars->Find(id);
    ASSERT_NE(got, nullptr) << id;
    EXPECT_TRUE(got->dynamics() == obj.dynamics()) << "object " << id;
    EXPECT_EQ(got->last_update(), obj.last_update()) << "object " << id;
  }
}

}  // namespace
}  // namespace most
