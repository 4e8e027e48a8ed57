package repro.spatial

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec

class SpatialDataSpec extends SparkSpec {

  private val allNames = SpatialData.lowDimDatasets ++ SpatialData.highDimDatasets

  test("every dataset generates the requested number of rows") {
    allNames.foreach { name =>
      val df = SpatialData.dataset(spark, name, 500)
      assert(df.count() == 500, name)
    }
  }

  test("dimensionality matches Table III") {
    val expected = Map(
      "T-drive" -> 2, "Porto" -> 2, "Argo-AVL" -> 2,
      "Argo-PC" -> 3, "3D-RD" -> 3, "Shapenet" -> 3,
      "Apoll-TD" -> 128, "Argo-ETD" -> 256,
    )
    expected.foreach { case (name, d) =>
      val row = SpatialData.dataset(spark, name, 10).select(size(col("features"))).head()
      assert(row.getInt(0) == d, s"$name should be $d-dimensional")
    }
  }

  test("generation is deterministic in (n, seed)") {
    val a = SpatialData.collectPoints(SpatialData.dataset(spark, "T-drive", 300))
    val b = SpatialData.collectPoints(SpatialData.dataset(spark, "T-drive", 300))
    a.indices.foreach(i => assert(a(i).sameElements(b(i))))
  }

  test("different seeds give different data") {
    val a = SpatialData.collectPoints(SpatialData.trajectory2d(spark, 100, 10, 50.0, seed = 1))
    val b = SpatialData.collectPoints(SpatialData.trajectory2d(spark, 100, 10, 50.0, seed = 2))
    assert(a.zip(b).exists { case (x, y) => !x.sameElements(y) })
  }

  test("values are finite everywhere") {
    allNames.foreach { name =>
      val pts = SpatialData.collectPoints(SpatialData.dataset(spark, name, 200))
      pts.foreach(p => p.foreach(v => assert(java.lang.Double.isFinite(v), s"$name produced $v")))
    }
  }

  test("low-dimensional values stay within a sane field") {
    SpatialData.lowDimDatasets.foreach { name =>
      val pts = SpatialData.collectPoints(SpatialData.dataset(spark, name, 1000))
      pts.flatten.foreach(v => assert(v > -200 && v < 400, s"$name out of field: $v"))
    }
  }

  test("trajectory data is clusterable (hotspot structure)") {
    // With tight hotspots, the average nearest-sample distance must be far
    // below what uniform data of the same extent would give.
    val pts = SpatialData.collectPoints(SpatialData.trajectory2d(spark, 2000, 5, 100.0, jitter = 0.1, seed = 3))
    val xs = pts.map(_(0)); val ys = pts.map(_(1))
    val spreadX = xs.max - xs.min
    // points concentrate: the middle 50% of x-values span much less than the extremes
    val sorted = xs.sorted
    val iqr = sorted((xs.length * 0.75).toInt) - sorted((xs.length * 0.25).toInt)
    assert(iqr < spreadX * 0.8, s"iqr=$iqr spread=$spreadX")
    assert(ys.max - ys.min > 1.0)
  }

  test("embedded data has low intrinsic dimension") {
    val pts = SpatialData.collectPoints(SpatialData.embedded(spark, 400, d = 32, intrinsic = 4, centers = 10))
    // crude check: variance concentrates — distances to the mean vary far
    // less than in isotropic gaussian data of the same dimension
    val mean = Array.tabulate(32)(i => pts.map(_(i)).sum / pts.length)
    val dists = pts.map(p => math.sqrt(p.indices.map(i => (p(i) - mean(i)) * (p(i) - mean(i))).sum))
    assert(dists.max / dists.min < 50, "distances should not be degenerate")
  }

  test("unknown dataset name is rejected") {
    intercept[IllegalArgumentException](SpatialData.dataset(spark, "nope", 10))
  }

  test("collectPoints orders by id") {
    val df = SpatialData.dataset(spark, "Argo-PC", 100)
    val viaOrder = SpatialData.collectPoints(df)
    val manual = df.orderBy("id").collect().map(_.getSeq[Double](1).toArray)
    viaOrder.indices.foreach(i => assert(viaOrder(i).sameElements(manual(i))))
  }

  test("lidar cloud has a dominant near-ground layer") {
    val pts = SpatialData.collectPoints(SpatialData.lidarCloud(spark, 2000))
    val nearGround = pts.count(p => p(2) < 1.0)
    assert(nearGround > pts.length / 5, s"only $nearGround near-ground points")
  }

  test("shape surfaces lie on spheres (distance to object centre ≈ radius)") {
    // sample points of one object id cluster together within radius ≤ 3
    val pts = SpatialData.collectPoints(SpatialData.shapeSurfaces(spark, 1000, objects = 5))
    // with 5 objects, nearest-neighbour distances are small relative to field
    val p0 = pts.head
    val nn = pts.tail.map(p => math.sqrt(p.indices.map(i => (p(i) - p0(i)) * (p(i) - p0(i))).sum)).min
    assert(nn < 10.0)
  }

  test("generated data pinned bit for bit") {
    def bits(df: DataFrame): Int =
      java.util.Arrays.hashCode(SpatialData.collectPoints(df).flatten.map(java.lang.Double.doubleToLongBits))
    val got = allNames.map(name => name -> bits(SpatialData.dataset(spark, name, 500))) ++ Seq(
      "lidarCloud" -> bits(SpatialData.lidarCloud(spark, 2000)),
      "roadNetwork3d" -> bits(SpatialData.roadNetwork3d(spark, 500)),
      "shapeSurfaces" -> bits(SpatialData.shapeSurfaces(spark, 1000, objects = 5)),
      "embedded" -> bits(SpatialData.embedded(spark, 400, d = 32, intrinsic = 4, centers = 10)),
    )
    // Recorded before the generators' unset knobs became constants: hashes
    // of the points' bits.
    val pinned = Map(
      "T-drive" -> 1556319903,
      "Porto" -> 1147616479,
      "Argo-AVL" -> -1720580504,
      "Argo-PC" -> 1958262034,
      "3D-RD" -> -1798732956,
      "Shapenet" -> -2052534433,
      "Apoll-TD" -> -1536295784,
      "Argo-ETD" -> 1123568714,
      "lidarCloud" -> -1137446552,
      "roadNetwork3d" -> -594821833,
      "shapeSurfaces" -> 937395612,
      "embedded" -> 665436053,
    )
    got.foreach { case (name, hash) => assert(hash == pinned(name), name) }
  }
}
