#include "core/object_model.h"

#include <gtest/gtest.h>

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
  EXPECT_EQ(fired, 3);  // One per coordinate attribute.
  EXPECT_EQ(last_class, "CARS");
  EXPECT_EQ(db_.update_count(), 3u);
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

}  // namespace
}  // namespace most
