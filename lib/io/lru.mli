(** Bounded LRU map over integer keys, used as the buffer pool of
    {!Block_store}.

    Operations are O(1): a hash table maps keys to doubly-linked-list
    nodes ordered by recency. On overflow the least-recently-used binding
    is evicted and handed to the caller's callback (which write-back
    logic hooks into). *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> int -> 'a option
(** Touches the binding (moves it to most-recently-used). *)

val touch : 'a t -> int -> unit
(** {!find} without building the [Some] result; counted the same. *)

val mem : 'a t -> int -> bool
(** Does not touch recency. *)

val peek : 'a t -> int -> 'a option
(** Like {!find} but without touching recency — the read-only lookup
    read contexts use to consult a shared cache without mutating it. *)

val put : 'a t -> int -> 'a -> on_evict:(int -> 'a -> unit) -> unit
(** Inserts or replaces the binding and marks it most-recently-used.
    If insertion overflows the capacity the LRU binding is removed and
    passed to [on_evict] (never the key just inserted). *)

val remove : 'a t -> int -> 'a option
(** Removes and returns the binding without calling any eviction hook. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Iterates from most- to least-recently-used. *)

val clear : 'a t -> on_evict:(int -> 'a -> unit) -> unit
(** Empties the cache, invoking [on_evict] on every binding. *)

val hits : 'a t -> int
(** Lookups through {!find} that found their key, plus nothing else:
    {!peek} and {!mem} stay uncounted because read contexts call them
    on shared caches from concurrent domains, where bumping a counter
    would be a data race. Callers on such paths account hits in their
    own per-domain structures instead. *)

val misses : 'a t -> int
(** {!find} lookups that missed, plus explicit {!note_miss} calls. *)

val note_miss : 'a t -> unit
(** Records a miss detected before consulting the table — the block
    store's disk path knows it missed without ever calling {!find}. *)

val reset_stats : 'a t -> unit
