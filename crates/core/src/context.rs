//! The Table 1 API surface exposed to processing units.
//!
//! A [`UnitContext`] is constructed by the engine for the duration of a single unit
//! callback (`init`, `on_event`, or a driver closure run through
//! [`Engine::with_unit`](crate::Engine::with_unit)). All of Table 1 is available
//! through it:
//!
//! | Paper call                      | Context method                         |
//! |---------------------------------|----------------------------------------|
//! | `createEvent()`                 | [`UnitContext::create_event`]          |
//! | `addPart(e, S, I, name, data)`  | [`UnitContext::add_part`] / [`UnitContext::add_part_to_current`] |
//! | `delPart(e, S, I, name)`        | [`UnitContext::del_part`]              |
//! | `readPart(e, name)`             | [`UnitContext::read_part`]             |
//! | `attachPrivilegeToPart(...)`    | [`UnitContext::attach_privilege_to_part`] |
//! | `cloneEvent(e, S, I)`           | [`UnitContext::clone_event`]           |
//! | `publish(e)`                    | [`UnitContext::publish`]               |
//! | `release(e)`                    | [`UnitContext::release`] (also implicit on return) |
//! | `subscribe(filter)`             | [`UnitContext::subscribe`] (refused in a managed handler) |
//! | `subscribeManaged(handler, f)`  | [`UnitContext::subscribe_managed`] (refused in a managed handler) |
//! | —                               | [`UnitContext::unsubscribe`] (refused in a managed handler) |
//! | `getEvent()`                    | [`Engine::get_event`](crate::Engine::get_event) (pull mode) |
//! | `instantiateUnit(...)`          | [`UnitContext::instantiate_unit`] (legal in a managed handler) |
//! | `changeOutLabel(...)`           | [`UnitContext::change_out_label`]      |
//! | `changeInOutLabel(...)`         | [`UnitContext::change_in_out_label`]   |
//!
//! Contamination independence (§5): the `S` and `I` a unit passes to `add_part` are
//! transparently raised to include the unit's output label, so a unit sandboxed at a
//! higher contamination cannot write below it.
//!
//! A managed handler (§5, `subscribeManaged`) runs under its owner's unit id but
//! at the event's contamination. The table's notes on managed handlers keep that
//! from becoming a flow to the owner. The three subscription calls return
//! [`EngineError::InvalidOperation`], because a contaminated handler must not edit
//! its uncontaminated owner's subscription set. `instantiate_unit` stays legal,
//! because the child inherits the handler's contamination, not the owner's labels.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use defcon_defc::{Component, Label, Privilege, PrivilegeKind, Tag};
use defcon_events::{Event, Filter, Part, Value};

use crate::dispatcher::Cascade;
use crate::engine::EngineCore;
use crate::error::{EngineError, EngineResult};
use crate::subscription::{Subscription, SubscriptionId};
use crate::unit::{Unit, UnitFactory, UnitId, UnitSpec, UnitState};

/// Whether a label-change call adds or removes a tag (the `⟨add|del⟩` argument of
/// `changeOutLabel` / `changeInOutLabel` in Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelOp {
    /// Add the tag to the component (raise secrecy / endorse integrity).
    Add,
    /// Remove the tag from the component (declassify / drop integrity).
    Remove,
}

/// A handle to an event under construction (`createEvent`).
///
/// Drafts live inside the [`UnitContext`] that created them and are consumed by
/// [`UnitContext::publish`]. Ids are drawn from one engine-wide sequence, so a
/// handle kept past its callback names no draft of a later one: using it is
/// [`EngineError::UnknownDraft`].
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct DraftEvent {
    id: u64,
}

#[derive(Debug, Default)]
struct DraftState {
    parts: Vec<Part>,
    origin_ns: Option<u64>,
}

/// The API object handed to unit code for the duration of one callback.
pub struct UnitContext<'a> {
    core: &'a Arc<EngineCore>,
    state: &'a mut UnitState,
    current: Option<&'a Event>,
    /// What the unit publishes, tagged with its publisher: this unit, or a
    /// unit it instantiates inside a dispatch.
    outputs: &'a mut Vec<Cascade>,
    /// Parts added to the delivered event, in the order they were added.
    additions: Vec<Part>,
    /// Open drafts by id. A callback holds one or two at a time, so a linear
    /// scan beats hashing (and building a hasher per context).
    drafts: Vec<(u64, DraftState)>,
    /// Whether this context runs inside an in-flight dispatch (an `on_event`
    /// delivery, or an `init` triggered transitively by one). Publications from
    /// such contexts are main-path cascades and survive the shutdown drain;
    /// driver-context publications are external and get rejected once the
    /// runtime stops.
    in_dispatch: bool,
    /// Whether this context serves a managed delivery: the state is a
    /// handler's, built for one event under its owner's unit id, so the
    /// owner's subscription set is out of its reach.
    managed: bool,
}

impl<'a> UnitContext<'a> {
    pub(crate) fn new(
        core: &'a Arc<EngineCore>,
        state: &'a mut UnitState,
        current: Option<&'a Event>,
        outputs: &'a mut Vec<Cascade>,
        in_dispatch: bool,
    ) -> Self {
        UnitContext {
            core,
            state,
            current,
            outputs,
            additions: Vec::new(),
            drafts: Vec::new(),
            in_dispatch,
            managed: false,
        }
    }

    /// Marks the context as serving a managed delivery (see the module docs).
    pub(crate) fn serving_managed(mut self) -> Self {
        self.managed = true;
        self
    }

    /// Consumes the context, returning the parts the unit added to the delivered
    /// event in the order it added them — returning from the callback is an
    /// implicit release (§3.1.6). Empty, and so unallocated, when it added none.
    pub(crate) fn finish(self) -> Vec<Part> {
        self.additions
    }

    fn checks_labels(&self) -> bool {
        self.core.config.mode.checks_labels()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The unit's identifier.
    pub fn unit_id(&self) -> UnitId {
        self.state.id
    }

    /// The unit's current input (contamination) label.
    pub fn input_label(&self) -> Label {
        self.state.input_label.clone()
    }

    /// The unit's current output label.
    pub fn output_label(&self) -> Label {
        self.state.output_label.clone()
    }

    /// Returns `true` if the unit currently holds `kind` over `tag`.
    pub fn has_privilege(&self, tag: &Tag, kind: PrivilegeKind) -> bool {
        self.state.privileges.holds(tag, kind)
    }

    /// The event currently being delivered, if this context was created for
    /// `on_event`.
    pub fn current_event(&self) -> Option<&Event> {
        self.current
    }

    // ------------------------------------------------------------------
    // Tag management
    // ------------------------------------------------------------------

    /// Creates a fresh tag; the unit receives `t+auth` and `t-auth` over it
    /// (§3.1.3).
    pub fn create_tag(&mut self, name: impl AsRef<str>) -> Tag {
        let tag = Tag::with_name(name.as_ref());
        let privileges = &mut self.state.privileges;
        privileges.grant(Privilege::add_authority(tag.clone()));
        privileges.grant(Privilege::remove_authority(tag.clone()));
        self.snapshotted_state_changed();
        tag
    }

    /// Creates a fresh tag and immediately self-delegates `t+` and `t-`, giving the
    /// unit complete control (the common pattern noted in §3.1.3).
    pub fn create_owned_tag(&mut self, name: impl AsRef<str>) -> Tag {
        let tag = self.create_tag(name);
        // Self-delegation always succeeds because creation granted both authorities.
        self.self_delegate(&tag, PrivilegeKind::Add)
            .expect("creator holds t+auth");
        self.self_delegate(&tag, PrivilegeKind::Remove)
            .expect("creator holds t-auth");
        tag
    }

    /// Grants the unit the given privilege over a tag for which it already holds the
    /// corresponding delegation authority.
    pub fn self_delegate(&mut self, tag: &Tag, kind: PrivilegeKind) -> EngineResult<()> {
        let privilege = Privilege::new(tag.clone(), kind);
        self.state.privileges.check_may_delegate(&privilege)?;
        self.state.privileges.grant(privilege);
        self.snapshotted_state_changed();
        Ok(())
    }

    /// Gives up every privilege the unit holds over `tag` — `t+`, `t-`,
    /// `t+auth` and `t-auth`. Always flow-safe (it can only shrink what the
    /// unit may do), so nothing is checked. Units call it on tags they are
    /// done with, such as a per-order tag once the order is published, so
    /// their privilege sets do not grow with every order.
    pub fn drop_privileges(&mut self, tag: &Tag) {
        if self.state.privileges.revoke_all(tag) {
            self.snapshotted_state_changed();
        }
    }

    // ------------------------------------------------------------------
    // Event construction (createEvent / addPart / delPart / attachPrivilege)
    // ------------------------------------------------------------------

    /// Creates a new, empty draft event (`createEvent`).
    pub fn create_event(&mut self) -> DraftEvent {
        self.open_draft(DraftState::default())
    }

    /// Adds a part to a draft event (`addPart`).
    ///
    /// The part's label is transparently raised to the unit's output label
    /// (contamination independence); when label checks are disabled the requested
    /// label is used as-is.
    pub fn add_part(
        &mut self,
        draft: &DraftEvent,
        label: Label,
        name: impl AsRef<str>,
        data: Value,
    ) -> EngineResult<()> {
        let label = self.effective_label(label);
        let draft_state = self.draft_mut(draft)?;
        draft_state.parts.push(Part::new(name, label, data));
        Ok(())
    }

    /// Removes all parts with the given name and label from a draft (`delPart`).
    pub fn del_part(
        &mut self,
        draft: &DraftEvent,
        label: Label,
        name: impl AsRef<str>,
    ) -> EngineResult<()> {
        let label = self.effective_label(label);
        let name = name.as_ref();
        let draft_state = self.draft_mut(draft)?;
        draft_state
            .parts
            .retain(|p| !(p.name() == name && p.label() == &label));
        Ok(())
    }

    /// Attaches a privilege over `tag` to the named part of a draft, creating a
    /// privilege-carrying part for delegation (`attachPrivilegeToPart`, §3.1.5).
    ///
    /// The caller must hold the matching delegation authority (`t+auth`/`t-auth`).
    pub fn attach_privilege_to_part(
        &mut self,
        draft: &DraftEvent,
        name: impl AsRef<str>,
        label: Label,
        privilege: Privilege,
    ) -> EngineResult<()> {
        self.state.privileges.check_may_delegate(&privilege)?;
        let label = self.effective_label(label);
        let name = name.as_ref();
        let draft_state = self.draft_mut(draft)?;
        let part = draft_state
            .parts
            .iter_mut()
            .find(|p| p.name() == name && p.label() == &label)
            .ok_or_else(|| {
                EngineError::Event(defcon_events::EventError::NoSuchPart(name.into()))
            })?;
        *part = part.with_additional_privilege(privilege);
        Ok(())
    }

    /// Creates a draft that is a clone of `event` at the unit's output label
    /// (`cloneEvent`): output confidentiality tags are added to every part and only
    /// output integrity tags are retained, and the clone has a fresh identity so
    /// that receivers cannot count the original deliveries.
    pub fn clone_event(&mut self, event: &Event) -> DraftEvent {
        let cloned = if self.checks_labels() {
            event.clone_at_output_label(&self.state.output_label)
        } else {
            event.clone_at_output_label(&Label::public())
        };
        self.open_draft(DraftState {
            parts: cloned.parts().to_vec(),
            origin_ns: Some(cloned.origin_ns()),
        })
    }

    // ------------------------------------------------------------------
    // Reading parts
    // ------------------------------------------------------------------

    /// Returns the label and data of every part named `name` that the unit's input
    /// label allows it to see (`readPart`), borrowed from the event.
    ///
    /// Reading a privilege-carrying part bestows the attached privileges on the unit
    /// (§3.1.5).
    pub fn read_part<'e>(
        &mut self,
        event: &'e Event,
        name: impl AsRef<str>,
    ) -> EngineResult<Vec<(&'e Label, &'e Value)>> {
        let mut parts = Vec::new();
        self.scan_visible(event, name.as_ref(), |part| {
            parts.push((part.label(), part.data()))
        })?;
        Ok(parts)
    }

    /// Returns the data of the first visible part with the given name, borrowed
    /// from the event. It checks and grants exactly as
    /// [`UnitContext::read_part`] does, over every part of that name.
    pub fn read_first<'e>(
        &mut self,
        event: &'e Event,
        name: impl AsRef<str>,
    ) -> EngineResult<&'e Value> {
        Ok(self.scan_visible(event, name.as_ref(), |_| {})?.data())
    }

    /// The scan behind both reads. For every part named `name` it checks
    /// visibility; each visible part bestows its privileges and is handed to
    /// `visit`. Returns the first visible part.
    fn scan_visible<'e>(
        &mut self,
        event: &'e Event,
        name: &str,
        mut visit: impl FnMut(&'e Part),
    ) -> EngineResult<&'e Part> {
        let checks = self.checks_labels();
        let mut first = None;
        let mut granted = false;
        for part in event.parts().iter().filter(|part| part.name() == name) {
            if checks && !self.state.can_see(part.label()) {
                continue;
            }
            for privilege in part.privileges() {
                self.state.privileges.grant(privilege.clone());
                granted = true;
            }
            first.get_or_insert(part);
            visit(part);
        }
        if granted {
            self.snapshotted_state_changed();
        }
        first.ok_or_else(|| EngineError::Event(defcon_events::EventError::NoSuchPart(name.into())))
    }

    // ------------------------------------------------------------------
    // Main-path augmentation (partial event processing, §3.1.6)
    // ------------------------------------------------------------------

    /// Adds a part to the event currently being delivered (`addPart` on the main
    /// dataflow path). Deliveries of an event run one at a time, so the part
    /// reaches later subscribers when the callback returns, after the parts
    /// added before it.
    pub fn add_part_to_current(
        &mut self,
        label: Label,
        name: impl AsRef<str>,
        data: Value,
    ) -> EngineResult<()> {
        if self.current.is_none() {
            return Err(EngineError::InvalidOperation(
                "no event is currently being delivered".into(),
            ));
        }
        let label = self.effective_label(label);
        self.additions.push(Part::new(name, label, data));
        Ok(())
    }

    /// Releases the event currently being delivered (`release`, Table 1).
    ///
    /// Deliveries of an event run one at a time, so the event moves on to
    /// later subscribers when the callback returns, whether or not it called
    /// this; they see every part the callback added, in the order it added
    /// them. The call is kept for the paper's API and has no further effect.
    pub fn release(&mut self) {}

    // ------------------------------------------------------------------
    // Publishing
    // ------------------------------------------------------------------

    /// Publishes a draft event (`publish`). Drafts without parts are dropped, as
    /// required by Table 1; publishing such a draft is not an error but returns
    /// `Ok(false)`.
    pub fn publish(&mut self, draft: DraftEvent) -> EngineResult<bool> {
        let at = self.draft_position(&draft)?;
        let (_, draft_state) = self.drafts.swap_remove(at);
        if draft_state.parts.is_empty() {
            return Ok(false);
        }
        let origin = draft_state
            .origin_ns
            .or_else(|| self.current.map(Event::origin_ns));
        let event = match origin {
            Some(origin_ns) => Event::with_origin(draft_state.parts, origin_ns)?,
            None => Event::new(draft_state.parts)?,
        };
        self.outputs.push(Cascade {
            publisher: self.state.id,
            event,
        });
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Subscriptions
    // ------------------------------------------------------------------

    /// Subscribes the unit to events matching `filter` (`subscribe`). Empty filters
    /// are rejected, and so is a call from a managed handler.
    pub fn subscribe(&mut self, filter: Filter) -> EngineResult<SubscriptionId> {
        self.check_not_managed("subscribe")?;
        if filter.is_empty() {
            return Err(EngineError::EmptyFilter);
        }
        let subscription = Subscription::direct(self.state.id, filter);
        let id = subscription.id;
        self.push_subscription(subscription);
        Ok(id)
    }

    /// Declares a managed subscription (`subscribeManaged`): each matching event
    /// is served by a fresh handler from `factory`, run at this unit's input
    /// label joined with the event's contamination and with this unit's output
    /// label, privileges and id. The handler's state lives for that one
    /// delivery, so this unit's own labels stay unchanged and nothing carries
    /// over to the next event. Rejected from a managed handler.
    pub fn subscribe_managed(
        &mut self,
        factory: UnitFactory,
        filter: Filter,
    ) -> EngineResult<SubscriptionId> {
        self.check_not_managed("subscribe_managed")?;
        if filter.is_empty() {
            return Err(EngineError::EmptyFilter);
        }
        let subscription = Subscription::managed(self.state.id, filter, factory);
        let id = subscription.id;
        self.state.owns_managed = true;
        self.push_subscription(subscription);
        Ok(id)
    }

    /// Cancels a subscription owned by this unit. Rejected from a managed
    /// handler.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> EngineResult<()> {
        self.check_not_managed("unsubscribe")?;
        let removed = self
            .core
            .subscriptions
            .write()
            .unsubscribe(id, self.state.id);
        if !removed {
            return Err(EngineError::UnknownSubscription(id.as_u64()));
        }
        self.core.bump_security_epoch();
        Ok(())
    }

    /// Refuses `call` inside a managed delivery: the handler runs under its
    /// owner's id at a higher contamination, and editing the owner's
    /// subscriptions would be a flow to the owner.
    fn check_not_managed(&self, call: &str) -> EngineResult<()> {
        if self.managed {
            return Err(EngineError::InvalidOperation(format!(
                "{call} is not available to a managed handler"
            )));
        }
        Ok(())
    }

    /// Appends a subscription. The table is copy-on-write, so concurrent
    /// dispatch passes keep iterating over their own immutable snapshot.
    fn push_subscription(&mut self, subscription: Subscription) {
        self.core.subscriptions.write().push(subscription);
        self.core.bump_security_epoch();
    }

    // ------------------------------------------------------------------
    // Label management (changeOutLabel / changeInOutLabel)
    // ------------------------------------------------------------------

    /// Adds or removes a tag in the unit's output label only (`changeOutLabel`).
    pub fn change_out_label(
        &mut self,
        component: Component,
        op: LabelOp,
        tag: &Tag,
    ) -> EngineResult<()> {
        let new_output =
            self.apply_label_op(&self.state.output_label.clone(), component, op, tag)?;
        self.state.output_label = new_output;
        self.snapshotted_state_changed();
        Ok(())
    }

    /// Adds or removes a tag in both the input and output labels
    /// (`changeInOutLabel`).
    pub fn change_in_out_label(
        &mut self,
        component: Component,
        op: LabelOp,
        tag: &Tag,
    ) -> EngineResult<()> {
        let new_input = self.apply_label_op(&self.state.input_label.clone(), component, op, tag)?;
        let new_output =
            self.apply_label_op(&self.state.output_label.clone(), component, op, tag)?;
        self.state.input_label = new_input;
        self.state.output_label = new_output;
        self.core.bump_security_epoch();
        Ok(())
    }

    fn apply_label_op(
        &self,
        label: &Label,
        component: Component,
        op: LabelOp,
        tag: &Tag,
    ) -> EngineResult<Label> {
        if self.checks_labels() {
            match op {
                LabelOp::Add => self.state.privileges.check_may_add(tag)?,
                LabelOp::Remove => self.state.privileges.check_may_remove(tag)?,
            }
        }
        Ok(match op {
            LabelOp::Add => label.with_tag(component, tag.clone()),
            LabelOp::Remove => label.without_tag(component, tag),
        })
    }

    // ------------------------------------------------------------------
    // Unit instantiation
    // ------------------------------------------------------------------

    /// Instantiates a new unit at a given label with delegated privileges
    /// (`instantiateUnit`).
    ///
    /// Every privilege in `spec.privileges` must be delegatable by the caller
    /// (`t±auth`). The new unit inherits the caller's contamination:
    ///
    /// * its input label accumulates the caller's input confidentiality tags and any
    ///   requested integrity restriction (requiring *more* integrity on inputs is
    ///   always safe and is how Pair Monitors are instantiated "with read integrity
    ///   s", §6.1 step 2);
    /// * its output label accumulates the caller's output confidentiality tags and
    ///   may not claim more integrity than the caller's output label allows.
    pub fn instantiate_unit(
        &mut self,
        mut spec: UnitSpec,
        instance: Box<dyn Unit>,
    ) -> EngineResult<UnitId> {
        if self.checks_labels() {
            for privilege in spec.privileges.iter().collect::<Vec<_>>() {
                self.state.privileges.check_may_delegate(&privilege)?;
            }
            spec.input_label = Label::new(
                spec.input_label
                    .confidentiality()
                    .union(self.state.input_label.confidentiality()),
                spec.input_label
                    .integrity()
                    .union(self.state.input_label.integrity()),
            );
            spec.output_label = Label::new(
                spec.output_label
                    .confidentiality()
                    .union(self.state.output_label.confidentiality()),
                spec.output_label
                    .integrity()
                    .intersection(self.state.output_label.integrity()),
            );
        }
        // Inside a dispatch the child's bootstrap events join this unit's
        // outputs, so they take the cascade path in publication order.
        let cascades = if self.in_dispatch {
            Some(&mut *self.outputs)
        } else {
            None
        };
        self.core.register_unit(spec, instance, cascades)
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    /// Opens a draft under a fresh engine-wide id.
    fn open_draft(&mut self, state: DraftState) -> DraftEvent {
        let id = self.core.draft_sequence.fetch_add(1, Ordering::Relaxed);
        self.drafts.push((id, state));
        DraftEvent { id }
    }

    fn draft_position(&self, draft: &DraftEvent) -> EngineResult<usize> {
        self.drafts
            .iter()
            .position(|(id, _)| *id == draft.id)
            .ok_or(EngineError::UnknownDraft(draft.id))
    }

    fn draft_mut(&mut self, draft: &DraftEvent) -> EngineResult<&mut DraftState> {
        let at = self.draft_position(draft)?;
        Ok(&mut self.drafts[at].1)
    }

    /// Retires cached dispatch snapshots after a change to the unit's output
    /// label or privileges. Only the owner of a managed subscription has
    /// those in the snapshot (its handlers run with them), so for every
    /// other unit the change is invisible to dispatch.
    fn snapshotted_state_changed(&self) {
        if self.state.owns_managed {
            self.core.bump_security_epoch();
        }
    }

    /// Applies contamination independence: `S' = S ∪ S_out`, `I' = I ∩ I_out`.
    fn effective_label(&self, requested: Label) -> Label {
        if self.checks_labels() {
            requested.raised_to_output(&self.state.output_label)
        } else {
            requested
        }
    }
}
