package repro.spark

import org.apache.spark.TaskContext
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._

import repro.core._

import scala.annotation.unused
import scala.collection.concurrent.TrieMap
import scala.collection.mutable.ArrayBuilder

/** Executor-local cache of per-partition Ball-trees, assignment state and
  * centroid indexes.
  *
  * The tree over a partition's spatial vectors is built once (the paper
  * builds the spatial-vector index once per task) and reused across the
  * driver-coordinated iterations; the assignment markers persist so the
  * inter-bound / batch pruning carries over between iterations exactly as
  * in the serial algorithm. Keys are (runId, partitionId); entries are
  * dropped explicitly when a run finishes. Works wherever executor JVMs
  * are stable across stages (local mode and standalone executors). Only
  * the job that builds the entry (the first of the fit) reads a
  * partition's rows; later jobs find the entry and reuse the shuffle
  * without reading them. Each entry also keeps the partition's one
  * centroid index, made by the first assignment phase and rebuilt in place
  * by every later one, as the serial run and the driver keep theirs.
  */
object PartitionIndexCache {
  final class Entry(
      val ids: Array[Long],
      val state: TreeAssignmentState,
      val counter: DistanceCounter,
  ) {
    private[spark] var index: CentroidIndex = null
  }

  private val cache = TrieMap.empty[(String, Int), Entry]

  def getOrBuild(runId: String, partition: Int, build: () => Entry): Entry =
    cache.getOrElseUpdate((runId, partition), build())

  def get(runId: String, partition: Int): Option[Entry] = cache.get((runId, partition))

  def drop(runId: String): Unit =
    cache.keys.filter(_._1 == runId).foreach(cache.remove)

  def size: Int = cache.size
}

/** Dask-means lifted onto Spark per the repro plan: the memory-tunable
  * index and batch assignment run as a per-partition operator, feeding
  * MLlib-KMeans-style (Lloyd) iterations. Per assignment phase the driver
  * computes the inter bounds and runs one job whose task function, a
  * `Step`, carries the centroids and inter bounds; each task runs
  * [[repro.core.DaskAssign.step]] over its partition's cached tree, and
  * the one partial each non-empty partition returns is reduced into the
  * next centroids.
  */
object DistributedDaskMeans {

  /** `counts`: cluster sizes at the last assignment phase; `numPartitions`:
    * the partition count the run's cache is keyed by.
    */
  final case class FitResult(
      centroids: Array[Array[Double]],
      iterations: Int,
      runId: String,
      batchPrunedVectors: Long,
      counts: Array[Long],
      numPartitions: Int,
  )

  /** Deterministic initial centroids: the k rows with the smallest seeded
    * hashes `xxhash64(id, seed)` of their ids as longs (a seeded
    * pseudo-random sample), in that order. Rows with equal hashes are
    * ordered by id, then by their order in `df`. Each partition keeps its own
    * k smallest and the driver keeps the k smallest of those, the same
    * selection as the first job of a [[fit]] without `init`.
    */
  def initialCentroids(df: DataFrame, k: Int, seed: Long): Array[Array[Double]] = {
    val rows = hashed(df, seed).queryExecution.toRdd
    smallest(df.sparkSession.sparkContext.runJob(rows, (it: Iterator[InternalRow]) => Decoded.read(it).smallest(k)), k)
  }

  /** Fit k-means over `df` (columns `id`, `features`; an integral id and
    * float or double features, cast to `long` and `array<double>`). The
    * input is read once: the shuffle that partitions it by id reads it,
    * later jobs reuse the shuffle, so the caller should persist `df` only
    * if it is expensive to recompute. Without `init`, the first job builds
    * each partition's index and picks the [[initialCentroids]]. Each
    * assignment phase is one job, with the centroids and inter bounds in
    * its task rather than in a broadcast variable. Invalid input fails
    * with the messages of [[repro.core.KMeansAlgo.run]], and a null id or
    * coordinate with "data has a null id" or "data has a null coordinate".
    * If the fit throws, the run's partition cache is dropped.
    */
  def fit(
      df: DataFrame,
      k: Int,
      maxIters: Int,
      leafCapacity: Int = 30,
      numPartitions: Int = 0,
      seed: Long = 42L,
      init: Option[Array[Array[Double]]] = None,
  ): FitResult = {
    require(maxIters >= 1, "need at least one iteration")
    require(k >= 1, s"need 1 <= k <= n, got k=$k")
    init.foreach { cs =>
      require(cs.length == k, s"need k=$k initial centroids, got ${cs.length}")
      require(Vec.allFinite(cs), "initial centroids have a NaN or infinite coordinate")
    }
    val sc = df.sparkSession.sparkContext
    val parts = if (numPartitions > 0) numPartitions else sc.defaultParallelism
    val rows = hashed(df, seed).repartition(parts, col("id")).queryExecution.toRdd
    val runId = java.util.UUID.randomUUID().toString
    val driverCounter = new DistanceCounter
    try {
      val start = init.getOrElse(smallest(sc.runJob(rows, new Pick(runId, k, leafCapacity)), k))
      require(start.length == k, s"need 1 <= k <= n, got k=$k n=${start.length}")
      val d = start(0).length
      // One set of driver arrays for the whole fit, refilled every phase.
      val counts = new Array[Long](k)
      val run = new KMeansRun {
        private val cb = new Array[Double](k)
        private val sums = Array.fill(k)(new Array[Double](d))
        private val buffers = new KMeans.Buffers(k, d)
        private var index: CentroidIndex = null

        override def assign(centroids: Array[Array[Double]], it: Int, drifts: Array[Double]): Long = {
          // Driver-side inter bounds over one centroid index, rebuilt in place (k is small).
          index = CentroidIndex.rebuildOrNew(index, centroids, leafCapacity, driverCounter)
          DaskAssign.interBounds(centroids, index, first = it == 0, cb, drifts, driverCounter)
          val partials = sc.runJob(rows, new Step(runId, k, leafCapacity, centroids, cb)).filter(_ != null)

          // Partition order fixes the order each cluster's sum is added in.
          // A cluster a partition emptied is skipped: its sum may keep
          // rounding residue.
          sums.foreach(java.util.Arrays.fill(_, 0.0))
          java.util.Arrays.fill(counts, 0L)
          for (p <- partials; j <- 0 until k if p.counts(j) > 0) {
            counts(j) += p.counts(j)
            Vec.addInto(sums(j), p.sums(j))
          }
          if (it == 0) require(counts.sum >= k, s"need 1 <= k <= n, got k=$k n=${counts.sum}")
          partials.map(_.pruned).sum
        }

        override def refine(centroids: Array[Array[Double]], drifts: Array[Double]): Array[Array[Double]] =
          KMeans.fromSums(sums, counts, centroids, drifts, buffers.other(centroids))
      }
      val out = KMeans.iterate(start, maxIters, run)
      FitResult(out.centroids, out.iterations, runId, out.pruned, counts, parts)
    } catch {
      case t: Throwable => PartitionIndexCache.drop(runId); throw t
    }
  }

  /** `df`'s `id` as a long and `features` as doubles. Catalyst casts an
    * `int` id or `float` features, so the binary rows [[Decoded.read]]
    * reads hold these types and no other.
    */
  private def typed(df: DataFrame): DataFrame =
    df.select(col("id").cast("long").as("id"), col("features").cast("array<double>").as("features"))

  /** [[typed]] with a third column, the seeded hash of the id. */
  private def hashed(df: DataFrame, seed: Long): DataFrame =
    typed(df).withColumn("hash", xxhash64(col("id"), lit(seed)))

  /** The points of the k smallest rows of the per-partition samples, taken
    * in partition order.
    */
  private def smallest(samples: Array[Decoded], k: Int): Array[Array[Double]] =
    new Decoded(samples.flatMap(_.ids), samples.flatMap(_.points), samples.flatMap(_.hashes)).smallest(k).points

  /** One partition's rows of [[hashed]], decoded column by column. */
  private final class Decoded(val ids: Array[Long], val points: Array[Array[Double]], val hashes: Array[Long])
      extends Serializable {

    /** The min(k, n) rows of smallest (hash, id), in that order; rows that
      * tie on both keep their order.
      */
    def smallest(k: Int): Decoded = {
      val m = math.min(k, ids.length)
      if (m <= 0) return new Decoded(Array.empty, Array.empty, Array.empty)
      val sorted = hashes.clone()
      java.util.Arrays.sort(sorted)
      val cut = sorted(m - 1)
      // Every row at or below the m-th smallest hash: more than m only
      // when hashes tie at the cut.
      val below = java.util.stream.IntStream.range(0, hashes.length).filter(hashes(_) <= cut).toArray
      val order = below.sorted(Ordering.by[Int, Long](hashes(_)).orElseBy(ids(_))).take(m)
      new Decoded(order.map(ids(_)), order.map(points(_)), order.map(hashes(_)))
    }

    /** The partition's cache entry: its ids and a tree over its points. */
    def entry(k: Int, leafCapacity: Int): PartitionIndexCache.Entry = {
      val state = if (points.isEmpty) null else new TreeAssignmentState(points, BallTree.build(points, leafCapacity), k)
      new PartitionIndexCache.Entry(ids, state, new DistanceCounter)
    }
  }

  private object Decoded {

    /** Decodes binary rows `(id, features, hash)`, which the iterator may
      * reuse, into fresh primitive arrays; no id, hash or coordinate is
      * boxed. Rejects a null id, a null features array or coordinate and a
      * NaN or infinite coordinate.
      */
    def read(rows: Iterator[InternalRow]): Decoded = {
      val ids = new ArrayBuilder.ofLong
      val points = new ArrayBuilder.ofRef[Array[Double]]
      val hashes = new ArrayBuilder.ofLong
      while (rows.hasNext) {
        val r = rows.next()
        require(!r.isNullAt(0), "data has a null id")
        require(!r.isNullAt(1), "data has a null coordinate")
        val a = r.getArray(1)
        val p = new Array[Double](a.numElements())
        var i = 0
        while (i < p.length) {
          require(!a.isNullAt(i), "data has a null coordinate")
          p(i) = a.getDouble(i)
          require(java.lang.Double.isFinite(p(i)), "data has a NaN or infinite coordinate")
          i += 1
        }
        ids.addOne(r.getLong(0))
        points.addOne(p)
        hashes.addOne(r.getLong(2))
      }
      new Decoded(ids.result(), points.result(), hashes.result())
    }
  }

  /** One partition's share of an assignment phase. */
  private final case class Partial(pruned: Long, counts: Array[Long], sums: Array[Array[Double]])

  /** The first job of a fit without `init`: builds each partition's cache
    * entry, as [[Step]] would, and returns the partition's sample for
    * [[initialCentroids]]. It reads the rows even when a retried task finds
    * the entry built.
    */
  private final class Pick(runId: String, k: Int, leafCapacity: Int)
      extends ((TaskContext, Iterator[InternalRow]) => Decoded) with Serializable {
    def apply(ctx: TaskContext, rows: Iterator[InternalRow]): Decoded = {
      val part = Decoded.read(rows)
      PartitionIndexCache.getOrBuild(runId, ctx.partitionId(), () => part.entry(k, leafCapacity))
      part.smallest(k)
    }
  }

  /** One partition's assignment phase against `centroids`: the partition's
    * cached tree, built from its rows on first use, assigned by
    * [[repro.core.DaskAssign.step]] over the entry's centroid index, made
    * on first use and rebuilt in place after. An empty partition returns
    * null. The centroids and inter bounds travel in the serialized task.
    */
  private final class Step(
      runId: String,
      k: Int,
      leafCapacity: Int,
      centroids: Array[Array[Double]],
      cb: Array[Double],
  ) extends ((TaskContext, Iterator[InternalRow]) => Partial) with Serializable {
    def apply(ctx: TaskContext, rows: Iterator[InternalRow]): Partial = {
      val entry = PartitionIndexCache.getOrBuild(runId, ctx.partitionId(), () => Decoded.read(rows).entry(k, leafCapacity))
      if (entry.state == null) null
      else {
        entry.index = CentroidIndex.rebuildOrNew(entry.index, centroids, leafCapacity, entry.counter)
        val pruned = DaskAssign.step(entry.state, centroids, cb, entry.index, entry.counter)
        Partial(pruned, entry.state.counts, entry.state.sums)
      }
    }
  }

  /** Final per-point assignments of a finished run as a DataFrame
    * `(id, cluster)`: the clusters of the run's last assignment phase, read
    * from its cached partition state by one job over the run's partitions.
    * Reads no rows of `df`, which only supplies the session. Throws once
    * the state is gone: call before [[cleanup]]. `leafCapacity` is unused;
    * the benchmark harness passes it.
    */
  def assignments(df: DataFrame, fitted: FitResult, @unused leafCapacity: Int = 30): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    val runId = fitted.runId
    spark.sparkContext.parallelize(0 until fitted.numPartitions, fitted.numPartitions)
      .mapPartitionsWithIndex { (pid, _) =>
        val entry = PartitionIndexCache.get(runId, pid).getOrElse(
          throw new IllegalStateException(s"run $runId has no state for partition $pid: call assignments before cleanup"))
        if (entry.state == null) Iterator.empty
        else {
          val a = entry.state.materialize()
          entry.ids.indices.iterator.map(i => (entry.ids(i), a(i)))
        }
      }
      .toDF("id", "cluster")
  }

  def cleanup(fitted: FitResult): Unit = PartitionIndexCache.drop(fitted.runId)

  /** Sum of squared errors of a fitted model over the frame. */
  def sse(df: DataFrame, centroids: Array[Array[Double]]): Double = {
    import df.sparkSession.implicits._
    df.select("features").as[Array[Double]]
      .map(p => Vec.dist2(p, centroids(Vec.nearest(p, centroids))))
      .reduce(_ + _)
  }
}
