package repro.spatial

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Deterministic Catalyst generators standing in for the paper's eight
  * sensor datasets (Table III). Each returns `(id BIGINT, features
  * ARRAY<DOUBLE>)`; randomness is derived from `xxhash64` so a (n, seed)
  * pair always yields the same data on Spark and for the DuckDB oracle.
  *
  * The generators match each dataset's dimensionality and clusterability
  * regime (see DESIGN.md §4): trajectory point sets are hotspot mixtures
  * with road-walk structure, point clouds are structured surfaces, and the
  * high-dimensional "embedded trajectory" sets live on a low-intrinsic-
  * dimension manifold (which is what lets ball-tree pruning survive d≥128,
  * as observed in the paper's Table V).
  */
object SpatialData {

  /** Side of the square field the 3D point-cloud generators fill. */
  private val Field = 100.0

  private val RoadSegments = 300

  /** Ambient gaussian noise of [[embedded]], per dimension. */
  private val EmbeddedNoise = 0.05

  /** Uniform (0,1) derived from hashing `e` with a salt. */
  private def u(e: String, salt: Long): String =
    s"((pmod(xxhash64($e, ${salt}L), 1000000000L) + 0.5) / 1000000000.0)"

  /** Standard gaussian via Box–Muller over two hashed uniforms. */
  private def gauss(e: String, salt: Long): String =
    s"(sqrt(-2.0 * ln(${u(e, salt)})) * cos(6.283185307179586 * ${u(e, salt + 7919)}))"

  /** 2D trajectory points: `n/trajLen` random-walk trajectories whose start
    * points concentrate around `hotspots` urban hotspots. Stands in for
    * T-drive / Porto / Argo-AVL at different hotspot densities.
    */
  def trajectory2d(
      spark: SparkSession,
      n: Long,
      hotspots: Int,
      field: Double,
      trajLen: Int = 50,
      step: Double = 0.4,
      jitter: Double = 0.3,
      seed: Long = 0,
  ): DataFrame = {
    val traj = s"(id div $trajLen)"
    val pos = s"(id % $trajLen)"
    val hot = s"pmod(xxhash64($traj, ${seed}L), $hotspots)"
    val hx = s"(${u(hot, seed + 1)} * $field)"
    val hy = s"(${u(hot, seed + 2)} * $field)"
    val theta = s"(${u(traj, seed + 3)} * 6.283185307179586)"
    val x = s"($hx + cos($theta) * $pos * $step + ${gauss("id", seed + 4)} * $jitter)"
    val y = s"($hy + sin($theta) * $pos * $step + ${gauss("id", seed + 5)} * $jitter)"
    spark.range(n).selectExpr("id", s"array($x, $y) as features")
  }

  /** 3D lidar-sweep-like cloud (Argo-PC substitute): ground plane, wall
    * strips, and compact objects.
    */
  def lidarCloud(spark: SparkSession, n: Long, seed: Long = 100): DataFrame = {
    val part = s"pmod(xxhash64(id, ${seed}L), 10)"
    val obj = s"pmod(xxhash64(id, ${seed + 1}L), 50)"
    val wall = s"pmod(xxhash64(id, ${seed + 2}L), 12)"
    val groundX = s"(${u("id", seed + 3)} * $Field)"
    val groundY = s"(${u("id", seed + 4)} * $Field)"
    val groundZ = s"(abs(${gauss("id", seed + 5)}) * 0.15)"
    val wallT = u("id", seed + 6)
    val wallX = s"(${u(wall, seed + 7)} * $Field * (1 - $wallT) + ${u(wall, seed + 8)} * $Field * $wallT)"
    val wallY = s"(${u(wall, seed + 9)} * $Field * (1 - $wallT) + ${u(wall, seed + 10)} * $Field * $wallT)"
    val wallZ = s"(${u("id", seed + 11)} * 6.0)"
    val objX = s"(${u(obj, seed + 12)} * $Field + ${gauss("id", seed + 13)} * 0.8)"
    val objY = s"(${u(obj, seed + 14)} * $Field + ${gauss("id", seed + 15)} * 0.8)"
    val objZ = s"(${u(obj, seed + 16)} * 2.5 + abs(${gauss("id", seed + 17)}) * 0.5)"
    val x = s"(case when $part < 4 then $groundX when $part < 7 then $wallX else $objX end)"
    val y = s"(case when $part < 4 then $groundY when $part < 7 then $wallY else $objY end)"
    val z = s"(case when $part < 4 then $groundZ when $part < 7 then $wallZ else $objZ end)"
    spark.range(n).selectExpr("id", s"array($x, $y, $z) as features")
  }

  /** 3D road-network points (3D-RD substitute): points along hashed road
    * segments with smooth elevation — a near-2D manifold embedded in 3D.
    */
  def roadNetwork3d(spark: SparkSession, n: Long, seed: Long = 200): DataFrame = {
    val seg = s"pmod(xxhash64(id, ${seed}L), $RoadSegments)"
    val t = u("id", seed + 1)
    val ax = s"(${u(seg, seed + 2)} * $Field)"
    val ay = s"(${u(seg, seed + 3)} * $Field)"
    val bx = s"($ax + (${u(seg, seed + 4)} - 0.5) * 18.0)"
    val by = s"($ay + (${u(seg, seed + 5)} - 0.5) * 18.0)"
    val x = s"($ax * (1 - $t) + $bx * $t + ${gauss("id", seed + 6)} * 0.05)"
    val y = s"($ay * (1 - $t) + $by * $t + ${gauss("id", seed + 7)} * 0.05)"
    val z = s"(sin($x / 17.0) * 4.0 + cos($y / 23.0) * 4.0 + ${gauss("id", seed + 8)} * 0.1)"
    spark.range(n).selectExpr("id", s"array($x, $y, $z) as features")
  }

  /** 3D object surfaces (Shapenet substitute): many small spheres scattered
    * across the field, points sampled on their surfaces.
    */
  def shapeSurfaces(spark: SparkSession, n: Long, objects: Int = 200, seed: Long = 300): DataFrame = {
    val obj = s"pmod(xxhash64(id, ${seed}L), $objects)"
    val cx = s"(${u(obj, seed + 1)} * $Field)"
    val cy = s"(${u(obj, seed + 2)} * $Field)"
    val cz = s"(${u(obj, seed + 3)} * $Field)"
    val r = s"(0.5 + ${u(obj, seed + 4)} * 2.5)"
    val gx = gauss("id", seed + 5)
    val gy = gauss("id", seed + 6)
    val gz = gauss("id", seed + 7)
    val norm = s"sqrt($gx*$gx + $gy*$gy + $gz*$gz + 1e-12)"
    val x = s"($cx + $r * $gx / $norm)"
    val y = s"($cy + $r * $gy / $norm)"
    val z = s"($cz + $r * $gz / $norm)"
    spark.range(n).selectExpr("id", s"array($x, $y, $z) as features")
  }

  /** High-dimensional embedded trajectories (Apoll-TD / Argo-ETD
    * substitutes): a Gaussian mixture whose centers lie on an
    * `intrinsic`-dimensional linear manifold inside R^d, plus small ambient
    * noise.
    */
  def embedded(
      spark: SparkSession,
      n: Long,
      d: Int,
      intrinsic: Int,
      centers: Int,
      seed: Long = 400,
  ): DataFrame = {
    val c = s"pmod(xxhash64(id, ${seed}L), $centers)"
    // latent coordinate of this point: per-center mean + small latent spread
    def latent(l: String) =
      s"(${gauss(s"($c * 64 + $l)", seed + 1)} * 3.0 + ${gauss(s"(id * 64 + $l)", seed + 2)} * 0.2)"
    // fixed hashed basis entry B(dim, l)
    def basis(dim: String, l: String) = gauss(s"(CAST($dim AS BIGINT) * 1024 + $l)", seed + 3)
    val sumExpr =
      s"aggregate(sequence(0, ${intrinsic - 1}), 0.0D, (acc, l) -> acc + ${basis("dim", "l")} * ${latent("l")})"
    val dimExpr = s"transform(sequence(0, ${d - 1}), dim -> $sumExpr / sqrt(${intrinsic}.0) + ${gauss("(id * 1031 + dim)", seed + 4)} * $EmbeddedNoise)"
    spark.range(n).selectExpr("id", s"$dimExpr as features")
  }

  /** The paper's dataset lineup (Table III) at a configurable scale. */
  def dataset(spark: SparkSession, name: String, n: Long, seed: Long = 42): DataFrame = name match {
    case "T-drive"  => trajectory2d(spark, n, hotspots = 60, field = 100.0, trajLen = 40, step = 0.5, jitter = 0.3, seed = seed)
    case "Porto"    => trajectory2d(spark, n, hotspots = 40, field = 80.0, trajLen = 60, step = 0.4, jitter = 0.5, seed = seed + 1)
    case "Argo-AVL" => trajectory2d(spark, n, hotspots = 15, field = 40.0, trajLen = 50, step = 0.3, jitter = 0.2, seed = seed + 2)
    case "Argo-PC"  => lidarCloud(spark, n, seed = seed + 3)
    case "3D-RD"    => roadNetwork3d(spark, n, seed = seed + 4)
    case "Shapenet" => shapeSurfaces(spark, n, seed = seed + 5)
    case "Apoll-TD" => embedded(spark, n, d = 128, intrinsic = 8, centers = 100, seed = seed + 6)
    case "Argo-ETD" => embedded(spark, n, d = 256, intrinsic = 10, centers = 120, seed = seed + 7)
    case other      => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  /** Dataset names by dimensionality regime, in the paper's table order. */
  val lowDimDatasets: Seq[String] = Seq("T-drive", "Porto", "Argo-AVL", "Argo-PC", "3D-RD", "Shapenet")
  val highDimDatasets: Seq[String] = Seq("Apoll-TD", "Argo-ETD")

  /** Collect a generated frame into the dense array form the serial
    * algorithms consume (ordered by id so runs are reproducible).
    */
  def collectPoints(df: DataFrame): Array[Array[Double]] = {
    import df.sparkSession.implicits._
    df.orderBy("id").select("features").as[Array[Double]].collect()
  }
}
